//! Per-prefix estimator state in sorted parallel arrays.
//!
//! Both the replay harness and the policy-mode server track one
//! estimator per /24 — the granularity the paper's snapshot tables use —
//! created lazily on first contact. All keys share one prefix length, so
//! the map is an ascending array of masked prefixes searched by
//! bisection, with the estimators in a parallel array. First contact
//! with a prefix inserts in place (O(n), once per prefix); a freeze into
//! a [`PolicyTable`] is one linear pass that copies the prefixes and
//! quotes each estimator.

use crate::adapter::OracleTable;
use crate::{PolicyKind, PolicyTable, RttSample, TimeoutPolicy};
use beware_dataset::snapshot::prefix_mask;
use std::sync::Arc;

/// Factory producing the estimator for a freshly seen prefix. Receives
/// the (masked) prefix so snapshot-backed factories can look it up.
type Factory = Box<dyn Fn(u32) -> Box<dyn TimeoutPolicy> + Send + Sync>;

/// A lazily populated `prefix → estimator` map. See the module docs.
pub struct PrefixPolicyMap {
    kind: PolicyKind,
    prefix_len: u8,
    factory: Factory,
    /// Masked prefixes, strictly ascending, so iteration order is
    /// independent of creation order.
    prefixes: Vec<u32>,
    /// `slots[i]` is the estimator of `prefixes[i]`.
    slots: Vec<Box<dyn TimeoutPolicy>>,
    /// State bytes charged regardless of tracked prefixes (the oracle's
    /// shared frozen table).
    base_bytes: usize,
}

impl std::fmt::Debug for PrefixPolicyMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixPolicyMap")
            .field("kind", &self.kind)
            .field("prefix_len", &self.prefix_len)
            .field("tracked", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl PrefixPolicyMap {
    /// A /24-keyed map of fresh default-parameter estimators of `kind`.
    ///
    /// Panics for [`PolicyKind::Oracle`] — use
    /// [`with_oracle`](Self::with_oracle).
    pub fn for_kind(kind: PolicyKind) -> PrefixPolicyMap {
        assert!(
            kind != PolicyKind::Oracle,
            "the oracle policy is built from a snapshot: use PrefixPolicyMap::with_oracle"
        );
        PrefixPolicyMap {
            kind,
            prefix_len: 24,
            factory: Box::new(move |_| kind.build()),
            prefixes: Vec::new(),
            slots: Vec::new(),
            base_bytes: 0,
        }
    }

    /// A /24-keyed map of frozen [`crate::OracleAdapter`]s over `table`.
    pub fn with_oracle(table: Arc<OracleTable>) -> PrefixPolicyMap {
        let base_bytes = table.state_bytes();
        PrefixPolicyMap {
            kind: PolicyKind::Oracle,
            prefix_len: 24,
            factory: Box::new(move |prefix| Box::new(table.policy_for(prefix))),
            prefixes: Vec::new(),
            slots: Vec::new(),
            base_bytes,
        }
    }

    /// Which policy kind populates this map.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// The tracked-prefix length (always 24 today).
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// The estimator covering `addr`, created on first contact.
    fn slot_mut(&mut self, addr: u32) -> &mut Box<dyn TimeoutPolicy> {
        let prefix = addr & prefix_mask(self.prefix_len);
        let idx = match self.prefixes.binary_search(&prefix) {
            Ok(i) => i,
            Err(i) => {
                self.prefixes.insert(i, prefix);
                self.slots.insert(i, (self.factory)(prefix));
                i
            }
        };
        &mut self.slots[idx]
    }

    /// The timeout the covering estimator would arm for `addr` right now.
    pub fn timeout_for(&mut self, addr: u32) -> f64 {
        self.slot_mut(addr).current_timeout()
    }

    /// Feed a measured RTT for `addr` to its estimator.
    pub fn observe(&mut self, addr: u32, sample: RttSample) {
        self.slot_mut(addr).observe(sample);
    }

    /// Tell `addr`'s estimator its armed timeout expired unanswered.
    pub fn on_timeout(&mut self, addr: u32) {
        self.slot_mut(addr).on_timeout();
    }

    /// Number of prefixes with live estimator state.
    pub fn tracked(&self) -> usize {
        self.slots.len()
    }

    /// Total estimator memory: shared base state plus every tracked
    /// prefix's own state, plus its key (4 + 1 bytes canonical: prefix
    /// and length).
    pub fn state_bytes(&self) -> usize {
        self.base_bytes + self.slots.iter().map(|s| s.state_bytes() + 5).sum::<usize>()
    }

    /// Freeze the map into an immutable [`PolicyTable`] quoting
    /// `fallback_secs` for untracked space — what the policy-mode server
    /// publishes through the epoch-swap slot.
    pub fn snapshot_table(&self, fallback_secs: f64) -> PolicyTable {
        PolicyTable::from_sorted(
            self.prefix_len,
            fallback_secs,
            self.prefixes.clone(),
            self.slots.iter().map(|s| s.current_timeout().to_bits()).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::INITIAL_TIMEOUT_SECS;

    #[test]
    fn lazily_creates_one_estimator_per_prefix() {
        let mut m = PrefixPolicyMap::for_kind(PolicyKind::JacobsonKarn);
        assert_eq!(m.tracked(), 0);
        m.observe(0x0a000001, RttSample::new(0.1, 0.0));
        m.observe(0x0a0000fe, RttSample::new(0.1, 1.0)); // same /24
        m.observe(0x0a000101, RttSample::new(0.1, 2.0)); // next /24
        assert_eq!(m.tracked(), 2);
    }

    #[test]
    fn prefixes_adapt_independently() {
        let mut m = PrefixPolicyMap::for_kind(PolicyKind::JacobsonKarn);
        for _ in 0..50 {
            m.observe(0x0a000001, RttSample::new(0.1, 0.0));
            m.observe(0x0a000101, RttSample::new(5.0, 0.0));
        }
        assert!(m.timeout_for(0x0a000002) < m.timeout_for(0x0a000102));
        // An untouched prefix quotes the initial timeout.
        assert_eq!(m.timeout_for(0x0b000001), INITIAL_TIMEOUT_SECS);
    }

    #[test]
    fn snapshot_table_freezes_current_timeouts() {
        let mut m = PrefixPolicyMap::for_kind(PolicyKind::ExpBackoff);
        m.on_timeout(0x0a000001); // 3 → 6
        m.timeout_for(0x0a000101); // tracked at initial 3
        let table = m.snapshot_table(INITIAL_TIMEOUT_SECS);
        assert_eq!(table.entries(), 2);
        assert_eq!(table.lookup(0x0a000099).timeout_secs, 6.0);
        assert_eq!(table.lookup(0x0a000199).timeout_secs, 3.0);
        assert!(!table.lookup(0x0c000001).exact);
        // Freezing is a snapshot: later adaptation does not leak in.
        m.on_timeout(0x0a000001);
        assert_eq!(table.lookup(0x0a000099).timeout_secs, 6.0);
    }

    #[test]
    fn state_bytes_grow_with_tracking() {
        let mut m = PrefixPolicyMap::for_kind(PolicyKind::CodelQuantile);
        let empty = m.state_bytes();
        m.observe(0x0a000001, RttSample::new(0.1, 0.0));
        assert!(m.state_bytes() > empty);
    }

    #[test]
    #[should_panic(expected = "with_oracle")]
    fn oracle_kind_needs_a_snapshot() {
        let _ = PrefixPolicyMap::for_kind(PolicyKind::Oracle);
    }
}
