//! # beware-telemetry
//!
//! Hierarchical, deterministic telemetry for the beware stack: counters,
//! max-gauges and log-bucketed histograms behind a [`Registry`]/[`Scope`]
//! API, plus wall-clock span timers that stay out of the deterministic
//! export.
//!
//! Design constraints (see DESIGN.md §7 for the full contract):
//!
//! * **Deterministic.** Every metric except the `walltime/` family is a
//!   pure function of the simulation inputs. [`Registry::to_json`] skips
//!   `walltime/`, so the JSON export is byte-identical across runs and
//!   thread counts; [`Registry::merge`] is commutative over `u64`
//!   arithmetic but callers still merge in fixed task order so even a
//!   future non-commutative metric kind would stay reproducible.
//! * **Handles are the hot path.** Metrics live in a vector of slots
//!   behind a name table. A name resolved once to a [`CounterId`],
//!   [`GaugeId`] or [`HistogramId`] records by index — no string is
//!   formatted, no map walked — so per-request code (the serve engine)
//!   resolves its handles once per registry and records through them.
//!   The [`Scope`] string API is the cold path over the same slots, for
//!   setup, rare events and end-of-run flushes; exports cannot tell the
//!   two faces apart.
//! * **Near-zero cost when disabled.** A registry built with
//!   [`Registry::disabled`] turns every recording call, by handle or by
//!   name, into a branch on one bool; no strings are formatted or
//!   allocated, no map entries touched.
//! * **Hierarchical names.** Metric names are `/`-joined paths
//!   (`probe/survey/matched`); a [`Scope`] is a registry view with a
//!   fixed prefix, nestable via [`Scope::scope`].
//! * **No dependencies.** The workspace is hermetic; the JSON export is
//!   hand-rendered and read back by a minimal parser covering exactly the
//!   emitted subset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;

use beware_runtime::clock::SharedClock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Family prefix for wall-clock measurements. Metrics under this prefix
/// are nondeterministic by nature and are excluded from
/// [`Registry::to_json`]; they still merge and render as text.
pub const WALLTIME_FAMILY: &str = "walltime/";

/// Family prefix for scheduling-dependent metrics: values that depend on
/// how work happened to be distributed (which shard a connection landed
/// on, per-shard cache hits, idle-timeout closures) rather than on the
/// inputs. Like [`WALLTIME_FAMILY`], the family is excluded from
/// [`Registry::to_json`] so the deterministic export stays byte-identical
/// across thread and shard counts; it still merges and renders as text.
pub const SCHED_FAMILY: &str = "sched/";

/// Family prefix for fault counters: faults injected by the chaos layer
/// (`beware-faultsim`) and faults *handled* by the serving stack (write
/// backpressure, bounded-queue overflows, poisoned client connections).
/// Whether and when a fault fires depends on wall-clock races between
/// peers, so the family is excluded from [`Registry::to_json`] like
/// [`WALLTIME_FAMILY`] and [`SCHED_FAMILY`]; it still merges and renders
/// as text.
pub const FAULTS_FAMILY: &str = "faults/";

/// The family prefixes excluded from the deterministic JSON export.
pub const NONDETERMINISTIC_FAMILIES: [&str; 3] = [WALLTIME_FAMILY, SCHED_FAMILY, FAULTS_FAMILY];

/// Log-bucketed histogram over `u64` values (latencies in µs, sizes in
/// bytes — the unit is the caller's naming convention).
///
/// Bucket `b` holds values `v` with `bucket_of(v) == b`: bucket 0 holds
/// only `v == 0`, bucket `b ≥ 1` holds `2^(b-1) ≤ v < 2^b`. Buckets are
/// sparse; only observed buckets are stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Bucket index → observation count.
    pub buckets: BTreeMap<u32, u64>,
}

/// Bucket index of a value: 0 for 0, else `floor(log2(v)) + 1` — pure
/// integer arithmetic, deterministic on every platform.
pub fn bucket_of(v: u64) -> u32 {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros()
    }
}

/// Inclusive upper bound of a bucket (`2^b - 1`), used for approximate
/// quantiles in the text report.
fn bucket_upper(b: u32) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
    }

    /// Approximate quantile (`q` in 0..=100): the inclusive upper bound of
    /// the bucket where the cumulative count crosses `q`% — an upper
    /// bound on the true quantile, exact to within one power of two.
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&b, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper(b).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric. The kind is fixed by the first recording under a name;
/// recording a different kind under the same name is a caller bug and
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// Monotonic count; merges by sum.
    Counter(u64),
    /// High-water mark; merges by max.
    Gauge(u64),
    /// Log-bucketed distribution; merges bucket-wise.
    Histogram(Histogram),
}

impl Metric {
    fn kind_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    fn merge(&mut self, other: &Metric, name: &str) {
        match (self, other) {
            (Metric::Counter(a), Metric::Counter(b)) => *a += b,
            (Metric::Gauge(a), Metric::Gauge(b)) => *a = (*a).max(*b),
            (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(b),
            (a, b) => panic!(
                "telemetry kind mismatch for `{name}`: {} vs {}",
                a.kind_name(),
                b.kind_name()
            ),
        }
    }
}

/// Source of [`RegistryId`]s: every registry value — new, disabled,
/// cloned or parsed — takes the next one.
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(0);

/// The identity of one [`Registry`] value, carried by every handle it
/// resolves. A cache of handles compares it with [`Registry::id`] to
/// notice that it was handed a different registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegistryId(u64);

impl RegistryId {
    fn fresh() -> RegistryId {
        RegistryId(NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed))
    }
}

macro_rules! handle {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        ///
        /// Resolved once by full name; recording through it indexes the
        /// registry's slot vector — no string is formatted, no map walked.
        /// It belongs to the registry that resolved it: recording it into
        /// any other enabled registry panics.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            reg: RegistryId,
            slot: usize,
        }
    };
}

handle!(
    /// A pre-resolved counter ([`Registry::counter_id`]).
    CounterId
);
handle!(
    /// A pre-resolved max-gauge ([`Registry::gauge_id`]).
    GaugeId
);
handle!(
    /// A pre-resolved histogram ([`Registry::histogram_id`]).
    HistogramId
);

/// The metric store. Create one per independent unit of work (a task in
/// a parallel fan-out), record through handles or [`Scope`]s, then
/// [`merge`] the per-task registries **in task order** into one.
///
/// Metrics live in a vector of slots indexed by a name table. Resolving
/// a name allocates an empty slot; a slot stays invisible to every
/// reader — [`get`], [`counter`], [`iter`], [`len`], [`merge`], the JSON
/// and text exports — until something is recorded into it, so resolving
/// handles up front changes no output.
///
/// [`merge`]: Registry::merge
/// [`get`]: Registry::get
/// [`counter`]: Registry::counter
/// [`iter`]: Registry::iter
/// [`len`]: Registry::len
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    id: RegistryId,
    /// Full name → slot index; its order is the export order.
    names: BTreeMap<String, usize>,
    /// `None` until the first recording fixes the slot's kind.
    slots: Vec<Option<Metric>>,
    /// Time source for [`Scope::time`]. `None` means real time
    /// ([`std::time::Instant`]); tests inject a
    /// `beware_runtime::VirtualClock` to make the `walltime/` family
    /// deterministic. The clock never affects the JSON export either way
    /// — `walltime/` stays excluded (see [`WALLTIME_FAMILY`]).
    clock: Option<SharedClock>,
}

/// A copy with a fresh identity: handles resolved on the original do not
/// record into the clone.
impl Clone for Registry {
    fn clone(&self) -> Self {
        Registry {
            enabled: self.enabled,
            id: RegistryId::fresh(),
            names: self.names.clone(),
            slots: self.slots.clone(),
            clock: self.clock.clone(),
        }
    }
}

/// The default registry is [`Registry::disabled`].
impl Default for Registry {
    fn default() -> Self {
        Registry::disabled()
    }
}

impl Registry {
    fn build(enabled: bool, clock: Option<SharedClock>) -> Self {
        Registry {
            enabled,
            id: RegistryId::fresh(),
            names: BTreeMap::new(),
            slots: Vec::new(),
            clock,
        }
    }

    /// An enabled, empty registry.
    pub fn new() -> Self {
        Registry::build(true, None)
    }

    /// A disabled registry: every recording call is a no-op costing one
    /// branch; merge/export see an empty registry.
    pub fn disabled() -> Self {
        Registry::build(false, None)
    }

    /// An enabled registry whose [`Scope::time`] spans are measured on
    /// `clock` instead of the wall — the seam that makes the `walltime/`
    /// family testable under a virtual clock.
    pub fn with_clock(clock: SharedClock) -> Self {
        Registry::build(true, Some(clock))
    }

    /// Whether recording is live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// This registry value's identity.
    pub fn id(&self) -> RegistryId {
        self.id
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// A recording view prefixed with `name` (e.g. `"netsim"`).
    pub fn scope(&mut self, name: &str) -> Scope<'_> {
        // A disabled registry records nothing, so its scopes need no
        // prefix and allocate no string.
        let prefix = if self.enabled { name.to_string() } else { String::new() };
        Scope { reg: self, prefix }
    }

    /// Look up a metric by full name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.slots[*self.names.get(name)?].as_ref()
    }

    /// Counter value by full name (0 when absent; `None` when the name
    /// holds a different kind).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            None => Some(0),
            Some(Metric::Counter(v)) => Some(*v),
            Some(_) => None,
        }
    }

    /// Iterate `(name, metric)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.names
            .iter()
            .filter_map(|(name, &slot)| Some((name.as_str(), self.slots[slot].as_ref()?)))
    }

    /// Resolve the counter with full name `name` to a handle.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        CounterId { reg: self.id, slot: self.slot_of(name) }
    }

    /// Resolve the max-gauge with full name `name` to a handle.
    pub fn gauge_id(&mut self, name: &str) -> GaugeId {
        GaugeId { reg: self.id, slot: self.slot_of(name) }
    }

    /// Resolve the histogram with full name `name` to a handle.
    pub fn histogram_id(&mut self, name: &str) -> HistogramId {
        HistogramId { reg: self.id, slot: self.slot_of(name) }
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        let Some(slot) = self.slot_mut(id.reg, id.slot) else { return };
        match slot {
            Some(Metric::Counter(v)) => *v += delta,
            None => *slot = Some(Metric::Counter(delta)),
            Some(m) => {
                let kind = m.kind_name();
                self.kind_mismatch(id.slot, kind, "counter")
            }
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Raise a max-gauge to at least `value`.
    #[inline]
    pub fn gauge_max(&mut self, id: GaugeId, value: u64) {
        let Some(slot) = self.slot_mut(id.reg, id.slot) else { return };
        match slot {
            Some(Metric::Gauge(v)) => *v = (*v).max(value),
            None => *slot = Some(Metric::Gauge(value)),
            Some(m) => {
                let kind = m.kind_name();
                self.kind_mismatch(id.slot, kind, "gauge")
            }
        }
    }

    /// Record `value` into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        let Some(slot) = self.slot_mut(id.reg, id.slot) else { return };
        match slot {
            Some(Metric::Histogram(h)) => h.observe(value),
            None => {
                let mut h = Histogram::default();
                h.observe(value);
                *slot = Some(Metric::Histogram(h));
            }
            Some(m) => {
                let kind = m.kind_name();
                self.kind_mismatch(id.slot, kind, "histogram")
            }
        }
    }

    /// The slot for `name`, allocating an empty one on first sight. A
    /// disabled registry allocates nothing: its handles are never used
    /// to index.
    fn slot_of(&mut self, name: &str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        if let Some(&slot) = self.names.get(name) {
            return slot;
        }
        let slot = self.slots.len();
        self.slots.push(None);
        self.names.insert(name.to_string(), slot);
        slot
    }

    /// The slot a handle records into; `None` when recording is off.
    #[inline]
    fn slot_mut(&mut self, reg: RegistryId, slot: usize) -> Option<&mut Option<Metric>> {
        if !self.enabled {
            return None;
        }
        assert!(
            reg == self.id,
            "telemetry: metric handle used on a registry that did not resolve it"
        );
        Some(&mut self.slots[slot])
    }

    #[cold]
    fn kind_mismatch(&self, slot: usize, kind: &str, want: &str) -> ! {
        let name = self.names.iter().find(|&(_, &s)| s == slot).map_or("?", |(n, _)| n.as_str());
        panic!("telemetry: `{name}` is a {kind}, not a {want}")
    }

    /// Store `metric` under `name`, replacing whatever was there.
    fn insert(&mut self, name: &str, metric: Metric) {
        let slot = self.slot_of(name);
        self.slots[slot] = Some(metric);
    }

    /// Merge `other` into `self`: counters sum, gauges take the max,
    /// histograms merge bucket-wise. Call in **fixed task order** when
    /// combining parallel work so the result never depends on scheduling.
    /// A disabled `self` ignores the merge.
    pub fn merge(&mut self, other: &Registry) {
        if !self.enabled {
            return;
        }
        for (name, metric) in other.iter() {
            let slot = self.slot_of(name);
            match &mut self.slots[slot] {
                Some(m) => m.merge(metric, name),
                empty => *empty = Some(metric.clone()),
            }
        }
    }

    /// Render the deterministic metrics as JSON (schema in DESIGN.md §7).
    /// The [`NONDETERMINISTIC_FAMILIES`] (`walltime/`, `sched/`,
    /// `faults/`) are excluded — this export is what the byte-identity
    /// contract covers.
    pub fn to_json(&self) -> String {
        json::render(self)
    }

    /// Parse a JSON document produced by [`Registry::to_json`] back into
    /// an (enabled) registry.
    pub fn from_json(text: &str) -> Result<Registry, String> {
        json::parse(text)
    }

    /// Render a human-readable text report, including `walltime/`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("telemetry report ({} metrics)\n", self.len()));
        let width = self.iter().map(|(k, _)| k.len()).max().unwrap_or(0).min(48);
        let mut family = "";
        for (name, metric) in self.iter() {
            let fam = name.split('/').next().unwrap_or("");
            if fam != family {
                family = fam;
                out.push('\n');
            }
            match metric {
                Metric::Counter(v) => {
                    out.push_str(&format!("  {name:<width$}  {v}\n"));
                }
                Metric::Gauge(v) => {
                    out.push_str(&format!("  {name:<width$}  {v} (peak)\n"));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "  {name:<width$}  count={} min={} max={} mean={:.1} p50≤{} p99≤{}\n",
                        h.count,
                        h.min,
                        h.max,
                        h.mean(),
                        h.quantile_upper(50.0).unwrap_or(0),
                        h.quantile_upper(99.0).unwrap_or(0),
                    ));
                }
            }
        }
        out
    }
}

/// A prefixed recording view of a [`Registry`] — the string-keyed cold
/// path over the same slots the handles index. Metric names passed to
/// the recording methods are joined to the scope's prefix with `/`.
#[derive(Debug)]
pub struct Scope<'a> {
    reg: &'a mut Registry,
    /// Empty on a disabled registry, whatever the scope's name.
    prefix: String,
}

impl Scope<'_> {
    /// Whether recording is live (callers can skip expensive preparation
    /// of values when not).
    pub fn enabled(&self) -> bool {
        self.reg.enabled
    }

    /// A nested scope: `self.prefix + "/" + name`.
    pub fn scope(&mut self, name: &str) -> Scope<'_> {
        let prefix = if !self.reg.enabled {
            String::new()
        } else if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}/{name}", self.prefix)
        };
        Scope { reg: self.reg, prefix }
    }

    fn full(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}/{name}", self.prefix)
        }
    }

    /// The slot of `prefix/name`. The full name is built on the end of
    /// the prefix buffer and cut off again, so a name seen before costs
    /// no allocation.
    fn slot_of(&mut self, name: &str) -> usize {
        let base = self.prefix.len();
        if base > 0 {
            self.prefix.push('/');
        }
        self.prefix.push_str(name);
        let slot = self.reg.slot_of(&self.prefix);
        self.prefix.truncate(base);
        slot
    }

    /// Add `delta` to the counter `name`.
    pub fn add(&mut self, name: &str, delta: u64) {
        if !self.reg.enabled {
            return;
        }
        let id = CounterId { reg: self.reg.id, slot: self.slot_of(name) };
        self.reg.add(id, delta);
    }

    /// Increment the counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Raise the max-gauge `name` to at least `value`.
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        if !self.reg.enabled {
            return;
        }
        let id = GaugeId { reg: self.reg.id, slot: self.slot_of(name) };
        self.reg.gauge_max(id, value);
    }

    /// Record `value` into the histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        if !self.reg.enabled {
            return;
        }
        let id = HistogramId { reg: self.reg.id, slot: self.slot_of(name) };
        self.reg.observe(id, value);
    }

    /// Time `f` on the registry's clock (the wall by default, a
    /// `beware_runtime::VirtualClock` when one was injected via
    /// [`Registry::with_clock`]) and add the elapsed nanoseconds to the
    /// counter `walltime/<prefix>/<name>_ns`. Wall-clock metrics live in
    /// their own top-level family precisely so the deterministic JSON
    /// export can exclude them (see [`WALLTIME_FAMILY`]).
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.reg.enabled {
            return f();
        }
        let (out, elapsed) = match self.reg.clock.clone() {
            Some(clock) => {
                let t0 = clock.now();
                let out = f();
                (out, clock.since(t0))
            }
            None => {
                let t0 = std::time::Instant::now();
                let out = f();
                (out, t0.elapsed())
            }
        };
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.add_walltime_ns(name, ns);
        out
    }

    /// Add externally measured wall-clock seconds under
    /// `walltime/<prefix>/<name>_ns`.
    pub fn record_wall_secs(&mut self, name: &str, secs: f64) {
        if !self.reg.enabled {
            return;
        }
        let ns = (secs.max(0.0) * 1e9).round() as u64;
        self.add_walltime_ns(name, ns);
    }

    fn add_walltime_ns(&mut self, name: &str, ns: u64) {
        let id = self.reg.counter_id(&format!("{WALLTIME_FAMILY}{}_ns", self.full(name)));
        self.reg.add(id, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_and_gauges_record() {
        let mut reg = Registry::new();
        let mut s = reg.scope("netsim");
        s.add("probes", 10);
        s.incr("probes");
        s.gauge_max("queue_peak", 5);
        s.gauge_max("queue_peak", 3);
        assert_eq!(reg.counter("netsim/probes"), Some(11));
        assert_eq!(reg.get("netsim/queue_peak"), Some(&Metric::Gauge(5)));
    }

    #[test]
    fn nested_scopes_join_with_slash() {
        let mut reg = Registry::new();
        let mut probe = reg.scope("probe");
        let mut survey = probe.scope("survey");
        survey.add("matched", 7);
        assert_eq!(reg.counter("probe/survey/matched"), Some(7));
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 1106);
        // p50 falls in the bucket of 3 → upper bound 3.
        assert_eq!(h.quantile_upper(50.0), Some(3));
        // p99 lands in the last bucket, clamped to the true max.
        assert_eq!(h.quantile_upper(99.0), Some(1000));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut reg = Registry::disabled();
        let mut s = reg.scope("x");
        s.add("a", 1);
        s.gauge_max("b", 2);
        s.observe("c", 3);
        let r = s.time("t", || 42);
        assert_eq!(r, 42);
        assert!(reg.is_empty());
        assert!(!reg.enabled());
    }

    #[test]
    fn disabled_scopes_allocate_no_prefix() {
        let mut reg = Registry::disabled();
        let mut outer = reg.scope("serve");
        assert_eq!(outer.prefix.capacity(), 0);
        let mut inner = outer.scope("engine");
        assert_eq!(inner.prefix.capacity(), 0);
        inner.incr("requests");
        assert_eq!(inner.prefix.capacity(), 0, "recording on a disabled scope builds no name");
        assert!(reg.is_empty());
    }

    #[test]
    fn merge_sums_maxes_and_buckets() {
        let build = |n: u64| {
            let mut reg = Registry::new();
            let mut s = reg.scope("m");
            s.add("count", n);
            s.gauge_max("peak", n * 2);
            s.observe("lat", n);
            reg
        };
        let mut a = build(3);
        a.merge(&build(5));
        assert_eq!(a.counter("m/count"), Some(8));
        assert_eq!(a.get("m/peak"), Some(&Metric::Gauge(10)));
        match a.get("m/lat") {
            Some(Metric::Histogram(h)) => {
                assert_eq!(h.count, 2);
                assert_eq!((h.min, h.max), (3, 5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn merge_order_does_not_change_result() {
        let build = |vals: &[u64]| {
            let mut reg = Registry::new();
            let mut s = reg.scope("m");
            for &v in vals {
                s.add("c", v);
                s.observe("h", v);
                s.gauge_max("g", v);
            }
            reg
        };
        let (a, b) = (build(&[1, 2, 3]), build(&[10, 20]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn merge_kind_mismatch_panics() {
        let mut a = Registry::new();
        a.scope("m").add("x", 1);
        let mut b = Registry::new();
        b.scope("m").gauge_max("x", 1);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_confusion_panics() {
        let mut reg = Registry::new();
        reg.scope("m").gauge_max("x", 1);
        reg.scope("m").add("x", 1);
    }

    #[test]
    fn walltime_excluded_from_json_but_rendered() {
        let mut reg = Registry::new();
        let mut s = reg.scope("bench");
        s.add("steps", 1);
        s.record_wall_secs("build", 1.5);
        let json = reg.to_json();
        assert!(json.contains("bench/steps"));
        assert!(!json.contains("walltime"), "{json}");
        let text = reg.render_text();
        assert!(text.contains("walltime/bench/build_ns"), "{text}");
    }

    #[test]
    fn sched_family_excluded_from_json_but_rendered() {
        let mut reg = Registry::new();
        let mut s = reg.scope("serve");
        s.add("queries", 4);
        reg.scope("sched").scope("serve").add("cache_hits", 3);
        let json = reg.to_json();
        assert!(json.contains("serve/queries"), "{json}");
        assert!(!json.contains("sched/"), "{json}");
        let text = reg.render_text();
        assert!(text.contains("sched/serve/cache_hits"), "{text}");
    }

    #[test]
    fn faults_family_excluded_from_json_but_rendered() {
        let mut reg = Registry::new();
        reg.scope("serve").add("queries", 4);
        reg.scope("faults").scope("injected").add("corruptions", 2);
        reg.scope("faults").scope("serve").add("queue_overflow_closed", 1);
        let json = reg.to_json();
        assert!(json.contains("serve/queries"), "{json}");
        assert!(!json.contains("faults/"), "{json}");
        let text = reg.render_text();
        assert!(text.contains("faults/injected/corruptions"), "{text}");
    }

    #[test]
    fn span_timer_records_elapsed() {
        let mut reg = Registry::new();
        let out = reg.scope("bench").time("work", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        let ns = reg.counter("walltime/bench/work_ns").unwrap();
        assert!(ns >= 1_000_000, "elapsed {ns} ns");
    }

    #[test]
    fn span_timer_on_a_virtual_clock_is_deterministic() {
        use beware_runtime::VirtualClock;
        // The walltime/ family becomes a pure function of the clock
        // schedule: 145 simulated seconds elapse with no real wait.
        let vc = VirtualClock::new();
        let mut reg = Registry::with_clock(vc.handle());
        let out = reg.scope("serve").time("stall", || {
            vc.advance(std::time::Duration::from_secs(145));
            "done"
        });
        assert_eq!(out, "done");
        assert_eq!(reg.counter("walltime/serve/stall_ns"), Some(145_000_000_000));
        // Export exclusion is clock-independent: walltime/ stays out of
        // the JSON either way.
        reg.scope("serve").incr("queries");
        let json = reg.to_json();
        assert!(json.contains("serve/queries"), "{json}");
        assert!(!json.contains("walltime"), "{json}");
    }

    #[test]
    fn text_report_groups_and_labels() {
        let mut reg = Registry::new();
        reg.scope("netsim").add("probes", 3);
        reg.scope("probe").scope("zmap").observe("rtt_us", 500);
        reg.scope("netsim").gauge_max("queue_peak", 9);
        let text = reg.render_text();
        assert!(text.contains("telemetry report (3 metrics)"), "{text}");
        assert!(text.contains("netsim/probes"), "{text}");
        assert!(text.contains("(peak)"), "{text}");
        assert!(text.contains("count=1"), "{text}");
    }
}
