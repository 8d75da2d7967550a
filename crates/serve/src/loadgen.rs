//! Closed-loop load generator for the oracle service.
//!
//! One worker loop serves every run: `workers` threads each drive one
//! [`Client`] closed loop (the next request waits for the previous
//! answer), drawing addresses from a shared pool with a per-worker
//! SplitMix64 stream (`beware_runtime::rng`). Runs differ only in their
//! stop rule, per-answer check and RTT feedback: [`run`] issues a fixed
//! number of queries per worker, optionally reporting each RTT
//! (`BENCH_3.json`); [`run_mass`] does so beside a pool of idle
//! connections, priced in process CPU (`BENCH_4.json`); [`run_reload`]
//! runs until the last snapshot reload lands, checking every answer
//! against the generations that could be serving (`BENCH_5.json`).
//! Latencies are the client machine's round-trip times, summarised with
//! nearest-rank percentiles.

use crate::client::{Answer, Client, ClientError};
use crate::oracle::Oracle;
use beware_runtime::clock::{SharedClock, WallClock};
use beware_runtime::process_cpu_time;
use beware_runtime::rng::SplitMix64;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// Most worker threads one run starts; more is a [`LoadError::Config`]
/// before any thread or connection starts.
pub const MAX_WORKERS: usize = 1024;

/// Socket read timeout per request.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// The closed loop every run drives.
#[derive(Debug, Clone)]
pub struct LoadCfg {
    /// Concurrent closed-loop workers, 1 to [`MAX_WORKERS`].
    pub workers: usize,
    /// Requests each worker issues ([`run_reload`]'s workers run until
    /// the last reload lands instead).
    pub requests_per_worker: usize,
    /// Addresses to draw from, uniformly at random.
    pub addr_pool: Vec<u32>,
    /// Address-percentile level queried, tenths of a percent.
    pub addr_pct_tenths: u16,
    /// Ping-percentile level queried, tenths of a percent.
    pub ping_pct_tenths: u16,
    /// Seed for the per-worker address streams.
    pub seed: u64,
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
            report_rtts: false,
        }
    }
}

/// Why a load run failed.
#[derive(Debug)]
pub enum LoadError {
    /// A setting is out of range; nothing was started.
    Config(String),
    /// The operating system refused a worker thread.
    Spawn(io::Error),
    /// A worker could not connect or lost its connection, or a reload
    /// failed.
    Run(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Config(m) | LoadError::Run(m) => f.write_str(m),
            LoadError::Spawn(e) => write!(f, "spawning a worker thread: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// `"key": value` pairs joined by `sep`: the hand-rolled JSON of the
/// `BENCH` documents (the workspace is hermetic and their schemas flat).
fn json_fields(pairs: &[(&str, String)], sep: &str) -> String {
    let fields: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    fields.join(sep)
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
    /// Render as the `BENCH_3.json` document (schema 1).
    pub fn to_json(&self) -> String {
        let (p50, p99, p999) = (self.p50_us, self.p99_us, self.p999_us);
        let latency = [("p50", p50), ("p99", p99), ("p999", p999), ("min", self.min_us)];
        let mut latency = latency.map(|(k, v)| (k, v.to_string())).to_vec();
        latency
            .extend([("max", self.max_us.to_string()), ("mean", format!("{:.3}", self.mean_us))]);
        let latency = json_fields(&latency, ",\n    ");
        let doc = json_fields(
            &[
                ("schema", "1".into()),
                ("bench", "\"serve_loadgen\"".into()),
                ("workers", self.workers.to_string()),
                ("requests", self.requests.to_string()),
                ("errors", self.errors.to_string()),
                ("reports", self.reports.to_string()),
                ("wall_secs", format!("{:.6}", self.wall_secs)),
                ("throughput_rps", format!("{:.3}", self.throughput_rps)),
                ("latency_us", format!("{{\n    {latency}\n  }}")),
            ],
            ",\n  ",
        );
        format!("{{\n  {doc}\n}}\n")
    }

    /// One-line human summary.
    pub fn render(&self) -> String {
        let LoadReport { workers, requests, errors, wall_secs, p50_us, p99_us, p999_us, .. } = self;
        let rps = self.throughput_rps;
        format!(
            "{workers} workers, {requests} ok / {errors} err in {wall_secs:.3}s — {rps:.0} req/s, \
             p50 {p50_us}µs p99 {p99_us}µs p99.9 {p999_us}µs"
        )
    }

    /// Summarise what `workers` workers counted over `wall_secs`.
    fn new(workers: usize, mut tally: Tally, wall_secs: f64) -> LoadReport {
        let all = &mut tally.lat_us;
        all.sort_unstable();
        let n = all.len();
        LoadReport {
            workers,
            requests: n as u64,
            errors: tally.errors,
            reports: tally.reports,
            wall_secs,
            throughput_rps: if wall_secs > 0.0 { n as f64 / wall_secs } else { 0.0 },
            p50_us: percentile(all, 50.0),
            p99_us: percentile(all, 99.0),
            p999_us: percentile(all, 99.9),
            min_us: all.first().copied().unwrap_or(0),
            max_us: all.last().copied().unwrap_or(0),
            mean_us: if n == 0 { 0.0 } else { all.iter().sum::<u64>() as f64 / n as f64 },
        }
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

/// What the workers of one run counted.
#[derive(Debug, Default)]
struct Tally {
    lat_us: Vec<u64>,
    errors: u64,
    reports: u64,
    /// Answers the run's check rejected.
    wrong: u64,
}

/// A per-answer check: does `answer` to a query for `addr` hold?
type Check<'a> = &'a (dyn Fn(u32, &Answer) -> bool + Sync);

/// One worker's closed loop on its own connection: `requests` queries,
/// or until `stop` is raised, whichever comes first.
fn worker(
    mut client: Client,
    w: usize,
    cfg: &LoadCfg,
    requests: usize,
    stop: &AtomicBool,
    check: Option<Check<'_>>,
) -> Result<Tally, String> {
    let mut rng = SplitMix64::new(cfg.seed ^ (w as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut t = Tally::default();
    // An i/o failure means the connection is gone: bail rather than spin.
    let lost = |e: io::Error| format!("worker {w}: i/o mid-run: {e}");
    let pool = &cfg.addr_pool;
    for _ in 0..requests {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let a = pool[(rng.next_u64() % pool.len() as u64) as usize];
        match client.query_timed(a, cfg.addr_pct_tenths, cfg.ping_pct_tenths) {
            Ok((answer, rtt)) => {
                let us = u64::try_from(rtt.as_micros()).unwrap_or(u64::MAX);
                t.lat_us.push(us);
                if check.is_some_and(|holds| !holds(a, &answer)) {
                    t.wrong += 1;
                }
                if cfg.report_rtts {
                    match client.report(a, u32::try_from(us).unwrap_or(u32::MAX)) {
                        Ok(_) => t.reports += 1,
                        Err(ClientError::Io(e)) => return Err(lost(e)),
                        Err(_) => t.errors += 1,
                    }
                }
            }
            Err(ClientError::Io(e)) => return Err(lost(e)),
            Err(_) => t.errors += 1,
        }
    }
    Ok(t)
}

/// Connect `cfg.workers` clients, run a [`worker`] loop on each in its own
/// thread, and call `during` meanwhile (it raises an open-ended run's stop
/// flag). Returns the merged tally, the window in seconds and `during`'s.
fn drive<R>(
    addr: SocketAddr,
    cfg: &LoadCfg,
    requests: usize,
    check: Option<Check<'_>>,
    during: impl FnOnce(&AtomicBool) -> R,
) -> Result<(Tally, f64, R), LoadError> {
    check_cfg(cfg)?;
    // Connect everyone first, so the measured window holds only requests.
    let clients = (0..cfg.workers)
        .map(|w| {
            Client::connect_retry(addr, READ_TIMEOUT, Duration::from_secs(2))
                .map_err(|e| LoadError::Run(format!("worker {w}: connect: {e}")))
        })
        .collect::<Result<Vec<Client>, LoadError>>()?;
    let clock: SharedClock = WallClock::shared();
    let stop = AtomicBool::new(false);
    let t0 = clock.now();
    thread::scope(|s| {
        let spawned = clients.into_iter().enumerate().map(|(w, client)| {
            let stop = &stop;
            let work = move || worker(client, w, cfg, requests, stop, check);
            thread::Builder::new().name(format!("loadgen-{w}")).spawn_scoped(s, work)
        });
        let handles = match spawned.collect::<io::Result<Vec<_>>>() {
            Ok(handles) => handles,
            Err(e) => {
                // The workers already running stop at their next request.
                stop.store(true, Ordering::Relaxed);
                return Err(LoadError::Spawn(e));
            }
        };
        let during = during(&stop);
        let mut tally = Tally::default();
        let mut failures = Vec::new();
        for h in handles {
            match h.join().expect("loadgen worker panicked") {
                Ok(t) => {
                    tally.lat_us.extend_from_slice(&t.lat_us);
                    tally.errors += t.errors;
                    tally.reports += t.reports;
                    tally.wrong += t.wrong;
                }
                Err(msg) => failures.push(msg),
            }
        }
        if !failures.is_empty() {
            return Err(LoadError::Run(failures.join("; ")));
        }
        Ok((tally, clock.since(t0).as_secs_f64(), during))
    })
}

/// Reject a closed loop that cannot run, before anything starts.
fn check_cfg(cfg: &LoadCfg) -> Result<(), LoadError> {
    let workers = cfg.workers;
    let why = if !(1..=MAX_WORKERS).contains(&workers) {
        format!("workers must be 1 to {MAX_WORKERS}, not {workers}")
    } else if cfg.addr_pool.is_empty() {
        "address pool is empty".into()
    } else {
        return Ok(());
    };
    Err(LoadError::Config(why))
}

/// Run the load against a server at `addr`. The query sequence per
/// `(seed, worker)` is fixed.
pub fn run(addr: SocketAddr, cfg: &LoadCfg) -> Result<LoadReport, LoadError> {
    if cfg.requests_per_worker == 0 {
        return Err(LoadError::Config("requests_per_worker must be >= 1".into()));
    }
    let (tally, wall, ()) = drive(addr, cfg, cfg.requests_per_worker, None, |_| ())?;
    Ok(LoadReport::new(cfg.workers, tally, wall))
}

/// Mass-connection run parameters: a pool of `conns` connections opened
/// and then held **idle**, plus the closed loop `load` as the hot subset
/// (each worker opens its own connection on top of the pool) — the shape
/// the readiness-driven serve path exists for. The telling numbers are
/// the ones a spin-polling server cannot produce: near-zero process CPU
/// while only the idle pool is connected, and a CPU-per-request figure
/// that does not grow with the number of parked connections.
#[derive(Debug, Clone, Default)]
pub struct MassCfg {
    /// The hot subset's closed loop.
    pub load: LoadCfg,
    /// Idle connections to open and hold for the whole run.
    pub conns: usize,
    /// Wall-clock window over which idle CPU is sampled, after the pool
    /// is open and before any hot traffic.
    pub idle_settle: Duration,
    /// The server's shard count, so the report can state connections per
    /// shard (0 for "unknown": a remote server's client cannot know it).
    pub shards: usize,
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
    /// Process CPU during the idle window, percent of its wall time
    /// (`None` without a process-CPU clock). Meaningful only with the
    /// server in this process, as the benchmark driver runs it.
    pub idle_cpu_pct: Option<f64>,
    /// Process CPU per successful hot request, microseconds: in-process,
    /// the whole loop's price — server shards *and* client workers.
    pub cpu_per_request_us: Option<f64>,
    /// The hot subset's closed-loop summary.
    pub load: LoadReport,
}

impl MassReport {
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
        let l = &self.load;
        format!(
            "{} idle conns ({:.0}/shard): {idle} — hot: {:.0} req/s, p50 {}µs p99 {}µs p99.9 {}µs, \
             {per_req}",
            self.conns, self.conns_per_shard, l.throughput_rps, l.p50_us, l.p99_us, l.p999_us,
        )
    }
}

/// Render a sweep of mass-connection runs as the `BENCH_4.json` document
/// (schema 1).
pub fn mass_sweep_json(runs: &[MassReport]) -> String {
    let opt = |v: Option<f64>| v.map_or("null".into(), |x| format!("{x:.3}"));
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            let l = &r.load;
            let latency = [("p50", l.p50_us), ("p99", l.p99_us), ("p999", l.p999_us)];
            let latency = latency.map(|(k, v)| (k, v.to_string()));
            let run = json_fields(
                &[
                    ("conns", r.conns.to_string()),
                    ("shards", r.shards.to_string()),
                    ("conns_per_shard", format!("{:.1}", r.conns_per_shard)),
                    ("idle_cpu_pct", opt(r.idle_cpu_pct)),
                    ("cpu_per_request_us", opt(r.cpu_per_request_us)),
                    ("hot_workers", l.workers.to_string()),
                    ("requests", l.requests.to_string()),
                    ("errors", l.errors.to_string()),
                    ("throughput_rps", format!("{:.3}", l.throughput_rps)),
                    ("latency_us", format!("{{ {} }}", json_fields(&latency, ", "))),
                ],
                ",\n      ",
            );
            format!("    {{\n      {run}\n    }}")
        })
        .collect();
    let runs = entries.join(",\n");
    format!("{{\n  \"schema\": 1,\n  \"bench\": \"serve_mass_conns\",\n  \"runs\": [\n{runs}\n  ]\n}}\n")
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
    let open = |i| {
        let mut attempts = 0;
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
                Ok(s) => {
                    // Idle conns never write; nodelay only matters for
                    // symmetry with the served side's accept path.
                    let _ = s.set_nodelay(true);
                    return Ok(s);
                }
                Err(e) if attempts == 200 => {
                    let hint = "(fd limit? `ulimit -n`)";
                    return Err(format!(
                        "idle connection {i}/{n} failed after 200 retries: {e} {hint}"
                    ));
                }
                Err(_) => attempts += 1,
            }
            thread::sleep(Duration::from_millis(2));
        }
    };
    (0..n).map(open).collect()
}

/// Run one mass-connection measurement against a server at `addr`:
/// open the idle pool, sample process CPU over a quiet settle window,
/// then drive the hot subset closed-loop and price its requests in CPU.
///
/// The CPU figures come from `CLOCK_PROCESS_CPUTIME_ID`, so they are
/// meaningful when the server runs **in this process** (the `beware
/// loadgen --conns` driver starts one); against a remote server they
/// measure only the client side and the driver reports them as such.
pub fn run_mass(addr: SocketAddr, cfg: &MassCfg) -> Result<MassReport, LoadError> {
    if cfg.conns == 0 {
        return Err(LoadError::Config("mass run needs --conns >= 1".into()));
    }
    check_cfg(&cfg.load)?;
    let clock: SharedClock = WallClock::shared();
    let pool = open_idle_pool(addr, cfg.conns).map_err(LoadError::Run)?;

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

    let hot_cpu0 = process_cpu_time();
    let load = run(addr, &cfg.load)?;
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

/// Reload-under-load run parameters: the closed loop `load` hammers the
/// query path while the coordinator fires snapshot reloads through a
/// caller-supplied driver, and **every answer is verified bit-for-bit**
/// against the set of snapshot generations that could legitimately be
/// serving — the wire-level check of the no-torn-reads guarantee.
#[derive(Debug, Clone, Default)]
pub struct ReloadCfg {
    /// The closed loop. Its workers run until the last reload (plus
    /// `cooldown`) lands, so every reload happens under load.
    pub load: LoadCfg,
    /// Reloads the coordinator fires.
    pub reloads: usize,
    /// Quiet gap before each reload, letting query traffic build up.
    pub reload_gap: Duration,
    /// Extra load after the final reload, so its aftermath is measured.
    pub cooldown: Duration,
    /// Every snapshot generation the server could be serving during the
    /// run. An answer is correct iff it byte-matches what **some**
    /// generation's oracle computes — old or new, never a mixture.
    pub truth: Vec<Oracle>,
}

/// Summary of one reload-under-load run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReloadReport {
    /// The closed loop's summary, with reloads in flight; its p99.9 is
    /// the headline: what a snapshot swap costs the tail.
    pub load: LoadReport,
    /// Answers that matched **no** snapshot generation bit-for-bit —
    /// must be zero for the no-torn-reads guarantee to hold.
    pub wrong_answers: u64,
    /// Reloads that completed successfully.
    pub reloads: u64,
    /// Slowest reload round-trip (admin op, file read, swap), µs.
    pub reload_max_us: u64,
    /// Mean reload round-trip, microseconds.
    pub reload_mean_us: f64,
}

impl ReloadReport {
    /// Render as the `BENCH_5.json` document (schema 1).
    pub fn to_json(&self) -> String {
        let l = &self.load;
        let latency =
            [("p50", l.p50_us), ("p99", l.p99_us), ("p999", l.p999_us), ("max", l.max_us)];
        let latency = json_fields(&latency.map(|(k, v)| (k, v.to_string())), ",\n    ");
        let reload = [
            ("max", self.reload_max_us.to_string()),
            ("mean", format!("{:.3}", self.reload_mean_us)),
        ];
        let doc = json_fields(
            &[
                ("schema", "1".into()),
                ("bench", "\"serve_reload\"".into()),
                ("workers", l.workers.to_string()),
                ("requests", l.requests.to_string()),
                ("errors", l.errors.to_string()),
                ("wrong_answers", self.wrong_answers.to_string()),
                ("reloads", self.reloads.to_string()),
                ("wall_secs", format!("{:.6}", l.wall_secs)),
                ("throughput_rps", format!("{:.3}", l.throughput_rps)),
                ("latency_us", format!("{{\n    {latency}\n  }}")),
                ("reload_us", format!("{{ {} }}", json_fields(&reload, ", "))),
            ],
            ",\n  ",
        );
        format!("{{\n  {doc}\n}}\n")
    }

    /// One-line human summary.
    pub fn render(&self) -> String {
        let LoadReport { workers, requests, errors, wall_secs, p999_us, .. } = &self.load;
        let (wrong, reloads, reload_max) = (self.wrong_answers, self.reloads, self.reload_max_us);
        format!(
            "{workers} workers, {requests} ok / {errors} err / {wrong} wrong across {reloads} \
             reloads in {wall_secs:.3}s — {:.0} req/s, p99.9 {p999_us}µs (reload max {reload_max}µs)",
            self.load.throughput_rps
        )
    }
}

/// Drive query load while `do_reload` fires snapshot swaps: workers run
/// closed-loop from their start until the last reload (plus cooldown)
/// has landed, verifying every answer against the truth set.
/// `do_reload(i)` performs the `i`-th reload end to end — typically
/// "write the next snapshot/delta file, send the `Reload` admin frame" —
/// and its round-trip is timed into the report.
pub fn run_reload(
    addr: SocketAddr,
    cfg: &ReloadCfg,
    mut do_reload: impl FnMut(usize) -> Result<(), String>,
) -> Result<ReloadReport, LoadError> {
    let l = &cfg.load;
    check_cfg(l)?;
    if cfg.truth.is_empty() {
        return Err(LoadError::Config(
            "truth set is empty: nothing to verify answers against".into(),
        ));
    }
    // Correct iff some generation's oracle computes the same bits.
    let in_truth = |a: u32, ans: &Answer| {
        let lookups = cfg.truth.iter().map(|o| o.lookup(a, l.addr_pct_tenths, l.ping_pct_tenths));
        lookups.flatten().any(|o| {
            let same = (o.timeout_bits, o.status, o.prefix, o.prefix_len);
            same == (ans.timeout_bits, ans.status, ans.prefix, ans.prefix_len)
        })
    };
    let clock: SharedClock = WallClock::shared();
    let reload_all = |stop: &AtomicBool| {
        let mut reload_us = Vec::with_capacity(cfg.reloads);
        let mut failed = None;
        for i in 0..cfg.reloads {
            clock.sleep(cfg.reload_gap);
            let r0 = clock.now();
            if let Err(e) = do_reload(i) {
                failed = Some(format!("reload {i}: {e}"));
                break;
            }
            reload_us.push(u64::try_from(clock.since(r0).as_micros()).unwrap_or(u64::MAX));
        }
        clock.sleep(cfg.cooldown);
        stop.store(true, Ordering::Relaxed);
        failed.map_or(Ok(reload_us), Err)
    };
    let (tally, wall, reload_us) = drive(addr, l, usize::MAX, Some(&in_truth), reload_all)?;
    let reload_us = reload_us.map_err(LoadError::Run)?;
    let reloads = reload_us.len() as u64;
    Ok(ReloadReport {
        wrong_answers: tally.wrong,
        load: LoadReport::new(l.workers, tally, wall),
        reloads,
        reload_max_us: reload_us.iter().copied().max().unwrap_or(0),
        reload_mean_us: if reloads == 0 {
            0.0
        } else {
            reload_us.iter().sum::<u64>() as f64 / reloads as f64
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

    fn sample_load() -> LoadReport {
        let tally = Tally { lat_us: vec![900, 80, 1200, 40, 400], ..Tally::default() };
        LoadReport::new(4, tally, 1.25)
    }

    #[test]
    fn report_json_shape() {
        let r = sample_load();
        assert_eq!((r.requests, r.min_us, r.p50_us, r.max_us), (5, 40, 400, 1200));
        let j = r.to_json();
        assert!(j.contains("\"bench\": \"serve_loadgen\""));
        assert!(j.contains("\"p999\": 1200"));
        assert!(j.contains("\"throughput_rps\": 4.000"));
        assert!(j.contains("\"mean\": 524.000"));
        assert!(r.render().contains("p99.9 1200µs"));
    }

    #[test]
    fn mass_sweep_json_shape() {
        let load = sample_load();
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
            load: sample_load(),
            wrong_answers: 0,
            reloads: 4,
            reload_max_us: 1800,
            reload_mean_us: 1200.5,
        };
        let j = r.to_json();
        assert!(j.contains("\"bench\": \"serve_reload\""));
        assert!(j.contains("\"wrong_answers\": 0"));
        assert!(j.contains("\"p999\": 1200"));
        assert!(j.contains("\"reload_us\": { \"max\": 1800, \"mean\": 1200.500 }"));
        assert!(!j.contains("\"min\""), "BENCH_5 reports no minimum");
        assert!(r.render().contains("across 4 reloads"));
    }

    #[test]
    fn reload_run_rejects_empty_truth_set() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let load = LoadCfg { addr_pool: vec![1], ..Default::default() };
        let cfg = ReloadCfg { load, ..Default::default() };
        let out = run_reload(addr, &cfg, |_| Ok(()));
        assert!(out.unwrap_err().to_string().contains("truth set"));
    }

    #[test]
    fn mass_zero_conns_rejected() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let cfg = MassCfg { conns: 0, ..Default::default() };
        assert!(matches!(run_mass(addr, &cfg), Err(LoadError::Config(_))));
    }

    #[test]
    fn empty_pool_rejected() {
        let cfg = LoadCfg { addr_pool: Vec::new(), ..Default::default() };
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(matches!(run(addr, &cfg), Err(LoadError::Config(_))));
    }

    /// Every run refuses more than `MAX_WORKERS` workers up front: the
    /// check precedes every connect and spawn, so no thread starts (the
    /// address refuses connections anyway).
    #[test]
    fn worker_counts_past_the_limit_are_rejected_before_anything_starts() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let load = LoadCfg { workers: MAX_WORKERS + 1, addr_pool: vec![1], ..Default::default() };
        let too_many = |r: Result<(), LoadError>| match r {
            Err(LoadError::Config(m)) => assert!(m.contains("1024"), "{m}"),
            other => panic!("expected a config error, got {other:?}"),
        };
        too_many(run(addr, &load).map(drop));
        too_many(
            run_mass(addr, &MassCfg { load: load.clone(), conns: 1, ..Default::default() })
                .map(drop),
        );
        let reload = ReloadCfg { load, ..Default::default() };
        too_many(run_reload(addr, &reload, |_| Ok(())).map(drop));
    }
}
