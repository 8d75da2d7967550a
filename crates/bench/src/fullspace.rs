//! Full-address-space campaign: stream a Zmap-style sweep of up to the
//! entire IPv4 space through the procedural netsim in bounded memory.
//!
//! The sweep is decomposed into fixed `2^chunk_bits`-address chunks. Each
//! chunk gets a **fresh** procedural world sharing one
//! [`beware_netsim::scenario::ProceduralSpace`] (block identity is a pure
//! function of the campaign seed, so per-chunk worlds agree everywhere),
//! with host state bounded by the campaign's [`LazyCfg`]. Probe send
//! times come from the *global* address index times a fixed inter-probe
//! interval — not from any per-thread clock — so the arrival set a chunk
//! produces depends only on the chunk's identity.
//!
//! That decomposition is what makes the headline guarantees hold:
//!
//! * **bounded memory** — at most `threads` chunk worlds are live, each
//!   holding ≤ `host_cap` hosts and a bounded profile cache;
//! * **thread invariance** — chunks are merged in index order
//!   ([`beware_netsim::exec::run_tasks`]), so the deterministic summary
//!   is byte-identical for any `--threads`;
//! * **capacity invariance** — each address is probed exactly once, so
//!   eviction can never change results (see `beware_netsim::space`), and
//!   the summary is byte-identical across `host_cap` settings too.
//!
//! The [`FullSpaceReport`] renders a deterministic summary
//! (`summary_json`, the artifact CI `cmp`s across thread counts and host
//! caps); the wall-clock, peak-resident-host and eviction numbers that
//! legitimately vary with configuration stay out of it.

use beware_netsim::link::LinkEvent;
use beware_netsim::scenario::{Scenario, ScenarioCfg, Vantage, VANTAGES};
use beware_netsim::space::LazyCfg;
use beware_netsim::time::{SimDuration, SimTime};
use beware_netsim::world::World;
use beware_netsim::{run_tasks, Packet};
use std::sync::Arc;

/// Source address the campaign probes from.
const PROBER: u32 = 0x0101_0101;

/// Log₂ RTT histogram buckets (microseconds).
const RTT_BUCKETS: usize = 40;

/// Full-space campaign parameters.
#[derive(Debug, Clone)]
pub struct FullSpaceCfg {
    /// Sweep addresses `base_addr .. base_addr + 2^space_bits` (30 → a
    /// ~1.07 B-address campaign; 32 → the full IPv4 space).
    pub space_bits: u32,
    /// First address of the sweep. The plan allocates blocks upward from
    /// 1.0.0.0, so the default base 0 covers them whenever `space_bits`
    /// ≥ 25; smaller smoke sweeps point the base at 1.0.0.0 directly.
    pub base_addr: u32,
    /// Routed `/24` blocks in the generated Internet.
    pub total_blocks: u32,
    /// Survey year (controls the cellular share).
    pub year: u16,
    /// Campaign seed: the single value block and host identity derive
    /// from.
    pub seed: u64,
    /// Vantage point the prober sits at.
    pub vantage: Vantage,
    /// Worker threads (1 = serial reference run).
    pub threads: usize,
    /// Resident-host cap per chunk world.
    pub host_cap: usize,
    /// Reclaim hosts idle at least this many sim-seconds, if set.
    pub quiescence_secs: Option<f64>,
    /// Global inter-probe spacing in nanoseconds (10 µs ≈ 100 kpps).
    pub probe_interval_ns: u64,
    /// Addresses per task = `2^chunk_bits`; fixed decomposition, so this
    /// (unlike `threads`) is part of the campaign's identity.
    pub chunk_bits: u32,
    /// Scheduled link degrade/partition windows; when non-empty the
    /// chunk worlds route probes through the shared link layer.
    pub link_events: Vec<LinkEvent>,
}

impl Default for FullSpaceCfg {
    fn default() -> Self {
        FullSpaceCfg {
            space_bits: 30,
            base_addr: 0,
            total_blocks: 65_536,
            year: 2015,
            seed: 0x1511_0b5e,
            vantage: VANTAGES[0],
            threads: 1,
            host_cap: 16_384,
            quiescence_secs: None,
            probe_interval_ns: 10_000,
            chunk_bits: 24,
            link_events: Vec::new(),
        }
    }
}

/// Deterministic per-chunk aggregate, merged in chunk order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChunkOut {
    probes: u64,
    responses: u64,
    unrouted: u64,
    no_response: u64,
    firewall_rsts: u64,
    link_drops: u64,
    arrivals: u64,
    rtt_sum_us: u64,
    rtt_hist: [u64; RTT_BUCKETS],
    // Config-dependent perf numbers, excluded from the summary.
    hosts_evicted: u64,
    hosts_peak: u64,
    link_queue_peak_us: u64,
}

impl Default for ChunkOut {
    // Manual because `[u64; 40]` has no derived Default.
    fn default() -> Self {
        ChunkOut {
            probes: 0,
            responses: 0,
            unrouted: 0,
            no_response: 0,
            firewall_rsts: 0,
            link_drops: 0,
            arrivals: 0,
            rtt_sum_us: 0,
            rtt_hist: [0; RTT_BUCKETS],
            hosts_evicted: 0,
            hosts_peak: 0,
            link_queue_peak_us: 0,
        }
    }
}

/// Campaign results: deterministic counters plus run-specific perf.
#[derive(Debug, Clone)]
pub struct FullSpaceReport {
    /// The configuration the campaign ran with.
    pub cfg: FullSpaceCfg,
    /// Probes sent (= addresses swept).
    pub probes: u64,
    /// Response packets received.
    pub responses: u64,
    /// Probes on unrouted space.
    pub unrouted: u64,
    /// Routed probes that drew no response.
    pub no_response: u64,
    /// Firewall-synthesized RSTs (zero for an echo sweep).
    pub firewall_rsts: u64,
    /// Probes black-holed by the link layer.
    pub link_drops: u64,
    /// Total arrivals at the prober.
    pub arrivals: u64,
    /// Sum of round-trip times, microseconds.
    pub rtt_sum_us: u64,
    /// Log₂ RTT histogram: bucket `i` counts RTTs in `[2^i, 2^(i+1))` µs.
    pub rtt_hist: [u64; RTT_BUCKETS],
    /// Max simultaneously resident hosts across all chunk worlds — the
    /// number the memory ceiling must fit (config-dependent).
    pub peak_resident_hosts: u64,
    /// Hosts reclaimed across the campaign (config-dependent).
    pub hosts_evicted: u64,
    /// High-water link queueing backlog, microseconds.
    pub link_queue_peak_us: u64,
    /// Wall-clock seconds of the sweep.
    pub wall_secs: f64,
}

/// Run the campaign. Spawns `cfg.threads` workers over the fixed chunk
/// decomposition; wall-clock aside, the result depends only on the
/// campaign identity (seed, space, blocks, chunking, link events).
pub fn run(cfg: &FullSpaceCfg) -> Result<FullSpaceReport, String> {
    if cfg.space_bits > 32 {
        return Err(format!("--bits {} exceeds the IPv4 space (max 32)", cfg.space_bits));
    }
    if cfg.chunk_bits > cfg.space_bits {
        return Err(format!("chunk_bits {} exceeds space_bits {}", cfg.chunk_bits, cfg.space_bits));
    }
    if cfg.host_cap == 0 {
        return Err("--lazy-hosts must be at least 1".into());
    }
    if u64::from(cfg.base_addr) + (1u64 << cfg.space_bits) > 1u64 << 32 {
        return Err(format!(
            "base {:#010x} + 2^{} runs past the end of the IPv4 space",
            cfg.base_addr, cfg.space_bits
        ));
    }
    let sc = Scenario::new(ScenarioCfg {
        year: cfg.year,
        seed: cfg.seed,
        total_blocks: cfg.total_blocks,
        vantage: cfg.vantage,
    });
    // One shared procedural space: resolving it is pure, so every chunk
    // world sees the same Internet without any of them owning it.
    let space = Arc::new(sc.lazy_space());
    let lazy = LazyCfg {
        host_cap: cfg.host_cap,
        quiescence: cfg.quiescence_secs.map(SimDuration::from_secs_f64),
        ..LazyCfg::default()
    };
    let world_seed = sc.world_seed();
    let link_cfg = (!cfg.link_events.is_empty()).then(|| sc.link_cfg(cfg.link_events.clone()));

    let chunk_count = 1u64 << (cfg.space_bits - cfg.chunk_bits);
    let chunk_size = 1u64 << cfg.chunk_bits;
    let interval = cfg.probe_interval_ns;
    let chunks: Vec<u64> = (0..chunk_count).collect();

    let t0 = std::time::Instant::now();
    let outs = run_tasks(cfg.threads, chunks, |_, chunk| {
        let source: Arc<dyn beware_netsim::space::ProfileSource> = space.clone();
        let mut world = World::procedural(world_seed, source, &lazy);
        if let Some(lc) = &link_cfg {
            world = world.with_links(lc.clone());
        }
        let mut out = ChunkOut::default();
        let base = chunk * chunk_size;
        for i in 0..chunk_size {
            let global = base + i;
            let addr = (u64::from(cfg.base_addr) + global) as u32;
            let at = SimTime::EPOCH + SimDuration::from_ns(global.saturating_mul(interval));
            let probe = Packet::echo_request(PROBER, addr, 1, global as u16, Vec::new());
            for arrival in world.probe(&probe, at) {
                let rtt_us = arrival.at.saturating_since(at).as_us();
                out.arrivals += 1;
                out.rtt_sum_us += rtt_us;
                let bucket = (u64::BITS - 1 - (rtt_us | 1).leading_zeros()) as usize;
                out.rtt_hist[bucket.min(RTT_BUCKETS - 1)] += 1;
            }
        }
        let s = world.stats();
        out.probes = s.probes;
        out.responses = s.responses;
        out.unrouted = s.unrouted;
        out.no_response = s.no_response;
        out.firewall_rsts = s.firewall_rsts;
        out.link_drops = s.link_drops;
        out.hosts_evicted = s.hosts_evicted;
        out.hosts_peak = s.hosts_peak;
        out.link_queue_peak_us = s.link_queue_peak_us;
        out
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    // Merge in chunk order (run_tasks already returns input order).
    let mut r = FullSpaceReport {
        cfg: cfg.clone(),
        probes: 0,
        responses: 0,
        unrouted: 0,
        no_response: 0,
        firewall_rsts: 0,
        link_drops: 0,
        arrivals: 0,
        rtt_sum_us: 0,
        rtt_hist: [0; RTT_BUCKETS],
        peak_resident_hosts: 0,
        hosts_evicted: 0,
        link_queue_peak_us: 0,
        wall_secs,
    };
    for out in outs {
        r.probes += out.probes;
        r.responses += out.responses;
        r.unrouted += out.unrouted;
        r.no_response += out.no_response;
        r.firewall_rsts += out.firewall_rsts;
        r.link_drops += out.link_drops;
        r.arrivals += out.arrivals;
        r.rtt_sum_us += out.rtt_sum_us;
        for (acc, n) in r.rtt_hist.iter_mut().zip(&out.rtt_hist) {
            *acc += n;
        }
        r.peak_resident_hosts = r.peak_resident_hosts.max(out.hosts_peak);
        r.hosts_evicted += out.hosts_evicted;
        r.link_queue_peak_us = r.link_queue_peak_us.max(out.link_queue_peak_us);
    }
    Ok(r)
}

impl FullSpaceReport {
    /// The deterministic summary: every field is a pure function of the
    /// campaign identity, so two runs of the same campaign produce
    /// byte-identical documents regardless of `threads`, `host_cap` or
    /// `quiescence` — the artifact the CI smoke `cmp`s.
    pub fn summary_json(&self) -> String {
        let c = &self.cfg;
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!(
            "  \"space_bits\": {}, \"base_addr\": {}, \"total_blocks\": {}, \"year\": {}, \
             \"seed\": {},\n",
            c.space_bits, c.base_addr, c.total_blocks, c.year, c.seed
        ));
        out.push_str(&format!(
            "  \"vantage\": \"{}\", \"chunk_bits\": {}, \"probe_interval_ns\": {}, \
             \"link_events\": {},\n",
            c.vantage.code,
            c.chunk_bits,
            c.probe_interval_ns,
            c.link_events.len()
        ));
        out.push_str(&format!(
            "  \"probes\": {}, \"responses\": {}, \"unrouted\": {}, \"no_response\": {},\n",
            self.probes, self.responses, self.unrouted, self.no_response
        ));
        out.push_str(&format!(
            "  \"firewall_rsts\": {}, \"link_drops\": {}, \"arrivals\": {}, \"rtt_sum_us\": {},\n",
            self.firewall_rsts, self.link_drops, self.arrivals, self.rtt_sum_us
        ));
        out.push_str("  \"rtt_hist_log2_us\": [");
        let mut first = true;
        for (i, &n) in self.rtt_hist.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("{{\"bucket\": {i}, \"count\": {n}}}"));
        }
        out.push_str("]\n}\n");
        out
    }

    /// One-paragraph human summary for the CLI.
    pub fn summary_text(&self) -> String {
        format!(
            "fullspace sweep: {} addresses ({} routed blocks) on {} thread(s) in {:.2}s\n  \
             responses {} | unrouted {} | silent {} | link drops {}\n  \
             peak resident hosts {} (cap {}) | evicted {} | mean rtt {:.1} ms\n",
            self.probes,
            self.cfg.total_blocks,
            self.cfg.threads,
            self.wall_secs,
            self.responses,
            self.unrouted,
            self.no_response,
            self.link_drops,
            self.peak_resident_hosts,
            self.cfg.host_cap,
            self.hosts_evicted,
            if self.arrivals > 0 {
                self.rtt_sum_us as f64 / self.arrivals as f64 / 1_000.0
            } else {
                0.0
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beware_netsim::link::{LinkEventKind, LinkId};

    fn tiny(threads: usize, host_cap: usize) -> FullSpaceCfg {
        FullSpaceCfg {
            space_bits: 16,
            // Blocks allocate upward from 1.0.0.0; sweep that /16.
            base_addr: 0x0100_0000,
            chunk_bits: 12,
            total_blocks: 128,
            threads,
            host_cap,
            seed: 42,
            ..FullSpaceCfg::default()
        }
    }

    #[test]
    fn summary_is_thread_and_capacity_invariant() {
        let serial = run(&tiny(1, usize::MAX)).unwrap();
        let parallel = run(&tiny(4, usize::MAX)).unwrap();
        let starved = run(&tiny(4, 64)).unwrap();
        assert_eq!(serial.summary_json(), parallel.summary_json());
        assert_eq!(serial.summary_json(), starved.summary_json());
        assert!(starved.peak_resident_hosts <= 64);
        assert!(starved.hosts_evicted > 0, "cap 64 must evict under a dense sweep");
        assert!(serial.responses > 0 && serial.unrouted > 0);
        assert_eq!(serial.probes, 1 << 16);
    }

    #[test]
    fn link_degrade_shows_up_in_the_summary() {
        let mut cfg = tiny(2, usize::MAX);
        cfg.link_events = vec![LinkEvent {
            link: LinkId::Access(0x0100),
            at_secs: 0.0,
            until_secs: f64::INFINITY,
            kind: LinkEventKind::Partition,
        }];
        let base = run(&tiny(2, usize::MAX)).unwrap();
        let partitioned = run(&cfg).unwrap();
        assert!(partitioned.link_drops > 0, "partitioning 1.0.0.0/16 must drop probes");
        assert!(partitioned.responses < base.responses);
        // Still thread-invariant with links attached.
        cfg.threads = 1;
        assert_eq!(run(&cfg).unwrap().summary_json(), partitioned.summary_json());
    }
}
