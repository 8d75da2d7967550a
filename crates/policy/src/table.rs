//! Published, immutable policy state: what the serve path swaps.
//!
//! A live [`crate::PrefixPolicyMap`] is mutable and lives behind a lock;
//! requests must never wait on it. Instead the engine periodically
//! freezes the map into a [`PolicyTable`] — each tracked prefix's
//! current timeout, as raw `f64` bits — and publishes it through the
//! runtime's epoch-swap slot (`beware_runtime::swap::Slot`), exactly the
//! way snapshot reloads publish a new oracle. Readers then answer
//! queries from the frozen table with zero locks.
//!
//! Every key in a table has the same prefix length, so longest-prefix
//! match degenerates to exact match on the masked address: the table is
//! two parallel arrays — ascending prefixes and their timeout bits —
//! searched by bisection. A freeze is two flat copies of the map's own
//! sorted arrays, with no tree to build.

use beware_dataset::snapshot::prefix_mask;

/// One query's answer from a [`PolicyTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyAnswer {
    /// The recommended timeout in seconds.
    pub timeout_secs: f64,
    /// True when a tracked prefix covered the address (as opposed to the
    /// table's fallback).
    pub exact: bool,
}

/// An immutable freeze of per-prefix timeouts. See the module docs.
#[derive(Debug)]
pub struct PolicyTable {
    prefix_len: u8,
    /// Masked prefixes, strictly ascending.
    prefixes: Vec<u32>,
    /// `bits[i]` is the timeout of `prefixes[i]`, as `f64` bits.
    bits: Vec<u64>,
    fallback_bits: u64,
}

impl PolicyTable {
    /// An empty table quoting `fallback_secs` everywhere: what a policy
    /// server answers before any RTT report has arrived.
    pub fn empty(prefix_len: u8, fallback_secs: f64) -> PolicyTable {
        PolicyTable::from_sorted(prefix_len, fallback_secs, Vec::new(), Vec::new())
    }

    /// Build a table from `(prefix, timeout_secs)` pairs, all at
    /// `prefix_len`. Bits below the prefix length are ignored, and when a
    /// prefix repeats the last pair wins.
    pub fn from_entries(
        prefix_len: u8,
        fallback_secs: f64,
        entries: impl IntoIterator<Item = (u32, f64)>,
    ) -> PolicyTable {
        let mask = prefix_mask(prefix_len);
        let mut pairs: Vec<(u32, u64)> =
            entries.into_iter().map(|(prefix, secs)| (prefix & mask, secs.to_bits())).collect();
        // Stable: duplicates keep their input order, so the last one of
        // each run is the last one given.
        pairs.sort_by_key(|&(prefix, _)| prefix);
        let mut prefixes: Vec<u32> = Vec::with_capacity(pairs.len());
        let mut bits: Vec<u64> = Vec::with_capacity(pairs.len());
        for (prefix, b) in pairs {
            if prefixes.last() == Some(&prefix) {
                *bits.last_mut().expect("parallel to prefixes") = b;
            } else {
                prefixes.push(prefix);
                bits.push(b);
            }
        }
        PolicyTable::from_sorted(prefix_len, fallback_secs, prefixes, bits)
    }

    /// A table over already-masked, strictly ascending `prefixes` and
    /// their parallel timeout `bits`.
    pub(crate) fn from_sorted(
        prefix_len: u8,
        fallback_secs: f64,
        prefixes: Vec<u32>,
        bits: Vec<u64>,
    ) -> PolicyTable {
        debug_assert_eq!(prefixes.len(), bits.len());
        debug_assert!(prefixes.windows(2).all(|w| w[0] < w[1]), "prefixes strictly ascending");
        PolicyTable { prefix_len, prefixes, bits, fallback_bits: fallback_secs.to_bits() }
    }

    /// Tracked-prefix length (the serve path publishes /24 state).
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Number of tracked prefixes.
    pub fn entries(&self) -> usize {
        self.prefixes.len()
    }

    /// Answer a query for `addr`.
    pub fn lookup(&self, addr: u32) -> PolicyAnswer {
        match self.prefixes.binary_search(&(addr & prefix_mask(self.prefix_len))) {
            Ok(i) => PolicyAnswer { timeout_secs: f64::from_bits(self.bits[i]), exact: true },
            Err(_) => {
                PolicyAnswer { timeout_secs: f64::from_bits(self.fallback_bits), exact: false }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_answers_fallback() {
        let t = PolicyTable::empty(24, 3.0);
        assert_eq!(t.entries(), 0);
        let a = t.lookup(0x0a000001);
        assert_eq!(a.timeout_secs, 3.0);
        assert!(!a.exact);
    }

    #[test]
    fn entries_answer_exact_and_preserve_bits() {
        let odd = f64::from_bits(0x3ff_0000_0000_0001); // slightly above 1.0
        let t = PolicyTable::from_entries(24, 3.0, [(0x0a000000u32, odd), (0x0a000100, 7.5)]);
        assert_eq!(t.entries(), 2);
        let a = t.lookup(0x0a000042);
        assert!(a.exact);
        assert_eq!(a.timeout_secs.to_bits(), odd.to_bits());
        assert_eq!(t.lookup(0x0a000105).timeout_secs, 7.5);
        assert!(!t.lookup(0x0b000001).exact);
    }
}
