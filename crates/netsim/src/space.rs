//! Procedural address space: resolve-on-demand block profiles and the
//! bounded host table that lets a full-IPv4-scale scan stream in fixed
//! memory.
//!
//! The eager [`crate::world::World`] routes blocks through an explicit
//! table, which caps campaigns at however many `/24`s fit in memory. The
//! procedural mode replaces the table with a [`ProfileSource`]: block
//! identity is a **pure function** of `(campaign_seed, prefix)` (the
//! scenario's `derive_seed`/`unit_hash` streams), so a profile can be
//! recomputed at any time and never needs to be stored. The world keeps a
//! small `ProfileCache` purely as a speed-up — because the source is
//! pure, the cache capacity can never change results.
//!
//! # Eviction invariants
//!
//! Host state machines materialize on first probe into a `HostTable`
//! bounded two ways:
//!
//! * **capacity** — inserting past `host_cap` evicts the
//!   least-recently-probed host first (lazy LRU: a probe-ordered queue of
//!   `(last_probe, addr)` stamps, stale stamps skipped on pop);
//! * **quiescence** — hosts idle longer than the configured window are
//!   reclaimed opportunistically on every insert.
//!
//! Both policies are driven only by the deterministic probe sequence, so
//! a given workload always evicts the same hosts in the same order.
//! Broadcast fan-out deliberately bypasses the table (neighbors answer
//! from ephemeral state), so only directly probed addresses occupy slots.
//! For workloads that probe each address **at most once** (the Zmap-style
//! full-space sweep), evicted state is never read again, and results are
//! byte-identical across any capacity or quiescence setting — the
//! flagship invariant the full-space campaign's CI smoke `cmp`s. A
//! workload that re-probes an evicted address meets a freshly seeded host
//! (same identity streams, reset dynamic state), which is still
//! deterministic for a fixed configuration but not capacity-invariant.

use crate::host::HostState;
use crate::profile::BlockProfile;
use crate::time::{SimDuration, SimTime};
use beware_asdb::{Asn, Continent};
use std::collections::{HashMap, VecDeque};

/// A block resolved by a [`ProfileSource`]: the behavior profile plus the
/// routing identity the link layer aggregates on.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedBlock {
    /// Behavior profile of the `/24`.
    pub profile: BlockProfile,
    /// Announcing AS — the shared aggregation link's identity.
    pub asn: Asn,
    /// Continent — the shared spine link's identity.
    pub continent: Continent,
}

/// A pure function from `/24` prefix to block behavior.
///
/// Implementations must be deterministic: two calls with the same prefix
/// return the same block, regardless of call order or interleaving —
/// that is what lets the world cache (and evict) resolutions freely.
pub trait ProfileSource: Send + Sync + std::fmt::Debug {
    /// The block behind `prefix24` (an address right-shifted by 8), or
    /// `None` when that space is unrouted.
    fn resolve(&self, prefix24: u32) -> Option<ResolvedBlock>;

    /// Number of routed `/24` blocks the source covers.
    fn routed_blocks(&self) -> usize;
}

/// Bounds for lazily materialized state in a procedural world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LazyCfg {
    /// Maximum resident host state machines; the least-recently-probed
    /// host is evicted to admit a new one.
    pub host_cap: usize,
    /// Reclaim hosts idle at least this long (sim time), independent of
    /// capacity pressure. `None` disables quiescence eviction.
    pub quiescence: Option<SimDuration>,
    /// Capacity of the block-profile cache (a pure speed-up; never
    /// affects results).
    pub profile_cache: usize,
}

impl Default for LazyCfg {
    fn default() -> Self {
        LazyCfg { host_cap: usize::MAX, quiescence: None, profile_cache: 8192 }
    }
}

/// One resident host: its state machine plus the stamp the lazy-LRU
/// queue validates against.
#[derive(Debug)]
struct HostSlot {
    state: HostState,
    last_probe: SimTime,
}

/// The bounded host table. See the module docs for the eviction
/// invariants.
#[derive(Debug)]
pub(crate) struct HostTable {
    cap: usize,
    quiescence: Option<SimDuration>,
    map: HashMap<u32, HostSlot>,
    /// Probe-ordered `(last_probe, addr)` stamps; an entry is live iff it
    /// matches its slot's `last_probe` (re-probes leave stale stamps that
    /// pops and compaction discard).
    order: VecDeque<(SimTime, u32)>,
    evicted: u64,
    peak: usize,
}

impl HostTable {
    pub(crate) fn unbounded() -> HostTable {
        HostTable::bounded(usize::MAX, None)
    }

    pub(crate) fn bounded(cap: usize, quiescence: Option<SimDuration>) -> HostTable {
        assert!(cap > 0, "host table needs room for at least one host");
        HostTable {
            cap,
            quiescence,
            map: HashMap::new(),
            order: VecDeque::new(),
            evicted: 0,
            peak: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// High-water mark of resident hosts.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Hosts reclaimed so far (capacity plus quiescence).
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The host at `addr`, materializing it with `make` on first probe.
    /// Updates recency and runs both eviction policies.
    pub(crate) fn entry_with(
        &mut self,
        addr: u32,
        now: SimTime,
        make: impl FnOnce() -> HostState,
    ) -> &mut HostState {
        self.expire_quiescent(now);
        if !self.map.contains_key(&addr) {
            if self.map.len() >= self.cap {
                self.evict_lru();
            }
            self.map.insert(addr, HostSlot { state: make(), last_probe: now });
            self.peak = self.peak.max(self.map.len());
        }
        self.order.push_back((now, addr));
        // The queue holds one stale stamp per re-probe; rebuild it once it
        // dwarfs the live set so memory stays O(resident hosts).
        if self.order.len() > self.map.len().saturating_mul(4).max(64) {
            let map = &self.map;
            self.order.retain(|&(t, a)| map.get(&a).is_some_and(|s| s.last_probe == t));
        }
        let slot = self.map.get_mut(&addr).expect("just ensured present");
        slot.last_probe = now;
        &mut slot.state
    }

    /// Drop hosts whose most recent probe is at least a quiescence window
    /// in the past.
    fn expire_quiescent(&mut self, now: SimTime) {
        let Some(window) = self.quiescence else { return };
        while let Some(&(t, addr)) = self.order.front() {
            if now.saturating_since(t) < window {
                break;
            }
            self.order.pop_front();
            if self.map.get(&addr).is_some_and(|s| s.last_probe == t) {
                self.map.remove(&addr);
                self.evicted += 1;
            }
        }
    }

    /// Evict exactly one host: the live entry with the oldest stamp.
    fn evict_lru(&mut self) {
        while let Some((t, addr)) = self.order.pop_front() {
            if self.map.get(&addr).is_some_and(|s| s.last_probe == t) {
                self.map.remove(&addr);
                self.evicted += 1;
                return;
            }
        }
        unreachable!("a non-empty table always has a live queue stamp");
    }
}

/// Bounded FIFO cache of resolved blocks. Purely a speed-up: the source
/// is a pure function, so capacity never affects results.
#[derive(Debug)]
pub(crate) struct ProfileCache<V> {
    cap: usize,
    map: HashMap<u32, V>,
    order: VecDeque<u32>,
}

impl<V: Clone> ProfileCache<V> {
    pub(crate) fn new(cap: usize) -> ProfileCache<V> {
        assert!(cap > 0, "profile cache needs room for at least one block");
        ProfileCache { cap, map: HashMap::new(), order: VecDeque::new() }
    }

    pub(crate) fn get_or_insert_with(
        &mut self,
        prefix24: u32,
        make: impl FnOnce() -> Option<V>,
    ) -> Option<V> {
        if let Some(v) = self.map.get(&prefix24) {
            return Some(v.clone());
        }
        let v = make()?;
        if self.map.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
        self.map.insert(prefix24, v.clone());
        self.order.push_back(prefix24);
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BlockProfile;
    use crate::rng::Dist;

    fn profile() -> BlockProfile {
        BlockProfile {
            base_rtt: Dist::Constant(0.05),
            jitter: Dist::Constant(0.0),
            density: 1.0,
            response_prob: 1.0,
            ..Default::default()
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_ns(secs * 1_000_000_000)
    }

    fn state(addr: u32, now: SimTime) -> HostState {
        HostState::new(7, &profile(), addr, now)
    }

    #[test]
    fn capacity_evicts_least_recently_probed() {
        let mut table = HostTable::bounded(2, None);
        table.entry_with(1, t(0), || state(1, t(0)));
        table.entry_with(2, t(1), || state(2, t(1)));
        // Re-probe 1 so 2 becomes the LRU despite its later insertion.
        table.entry_with(1, t(2), || unreachable!("1 is resident"));
        table.entry_with(3, t(3), || state(3, t(3)));
        assert_eq!(table.len(), 2);
        assert_eq!(table.evicted(), 1);
        assert!(table.map.contains_key(&1), "recently probed host survives");
        assert!(!table.map.contains_key(&2), "LRU host evicted");
        assert_eq!(table.peak(), 2);
    }

    #[test]
    fn quiescent_hosts_reclaimed_without_pressure() {
        let window = SimDuration::from_ns(10_000_000_000); // 10 s
        let mut table = HostTable::bounded(usize::MAX, Some(window));
        table.entry_with(1, t(0), || state(1, t(0)));
        table.entry_with(2, t(5), || state(2, t(5)));
        // At t=12 host 1 has idled 12 s >= 10 s; host 2 only 7 s.
        table.entry_with(3, t(12), || state(3, t(12)));
        assert_eq!(table.evicted(), 1);
        assert!(!table.map.contains_key(&1));
        assert!(table.map.contains_key(&2));
    }

    #[test]
    fn stale_stamps_never_evict_fresh_hosts() {
        let mut table = HostTable::bounded(1, None);
        // Many re-probes of the same host leave stale stamps; a new insert
        // must evict the host itself, not trip on the stale entries.
        for i in 0..100u64 {
            table.entry_with(9, t(i), || state(9, t(0)));
        }
        assert_eq!(table.evicted(), 0);
        table.entry_with(10, t(200), || state(10, t(200)));
        assert_eq!(table.len(), 1);
        assert_eq!(table.evicted(), 1);
        assert!(table.map.contains_key(&10));
        assert!(table.order.len() <= 64, "queue compaction bounds stale stamps");
    }

    #[test]
    fn profile_cache_is_bounded_and_transparent() {
        let mut cache: ProfileCache<u64> = ProfileCache::new(2);
        let calls = std::cell::Cell::new(0u32);
        let get = |c: &mut ProfileCache<u64>, k: u32| {
            c.get_or_insert_with(k, || {
                calls.set(calls.get() + 1);
                Some(u64::from(k) * 10)
            })
        };
        assert_eq!(get(&mut cache, 1), Some(10));
        assert_eq!(get(&mut cache, 1), Some(10));
        assert_eq!(calls.get(), 1, "second read is a hit");
        assert_eq!(get(&mut cache, 2), Some(20));
        assert_eq!(get(&mut cache, 3), Some(30));
        // 1 was evicted (FIFO), but the recompute returns the same value.
        assert_eq!(get(&mut cache, 1), Some(10));
        assert_eq!(calls.get(), 4);
        assert!(cache.map.len() <= 2);
        // Unrouted lookups are not cached.
        assert_eq!(cache.get_or_insert_with(99, || None), None);
        assert!(!cache.map.contains_key(&99));
    }
}
