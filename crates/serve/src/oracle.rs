//! The in-process oracle: a loaded snapshot behind longest-prefix-match
//! lookup.
//!
//! This is the server's read path, but it is also a library in its own
//! right — embed an [`Oracle`] to answer timeout queries without a socket
//! (see `examples/timeout_oracle.rs`). Lookups are lock-free reads over
//! immutable data: the per-prefix tables live in a flat arena indexed by
//! a [`beware_asdb::PrefixTrie`], so a query is one trie walk plus one
//! slice index.

use crate::proto::Status;
use beware_asdb::PrefixTrie;
use beware_dataset::snapshot::{snapshot_checksum, SnapshotError, TimeoutSnapshot};
use beware_runtime::swap::{Slot, SlotReader};

/// Why an [`Oracle`] could not be built.
///
/// `#[non_exhaustive]`: oracle construction may grow failure modes
/// beyond snapshot validity (resource limits, say) without a breaking
/// change.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The snapshot failed canonical-form validation.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Snapshot(e) => write!(f, "invalid snapshot: {e}"),
        }
    }
}

impl std::error::Error for OracleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OracleError::Snapshot(e) => Some(e),
        }
    }
}

impl From<SnapshotError> for OracleError {
    fn from(e: SnapshotError) -> Self {
        OracleError::Snapshot(e)
    }
}

/// A query answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lookup {
    /// Whether a prefix matched or the fallback answered.
    pub status: Status,
    /// Recommended timeout as `f64` bits — exactly the bits the offline
    /// `TimeoutTable` computed.
    pub timeout_bits: u64,
    /// The matched prefix (0 when the fallback answered).
    pub prefix: u32,
    /// The matched prefix length (0 when the fallback answered).
    pub prefix_len: u8,
}

impl Lookup {
    /// The recommended timeout in seconds.
    pub fn timeout_secs(&self) -> f64 {
        f64::from_bits(self.timeout_bits)
    }
}

/// Why a lookup could not be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupError {
    /// The queried address-percentile level is not in the snapshot grid.
    UnsupportedAddressPercentile(u16),
    /// The queried ping-percentile level is not in the snapshot grid.
    UnsupportedPingPercentile(u16),
}

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LookupError::UnsupportedAddressPercentile(t) => {
                write!(f, "address percentile {:.1}% not in snapshot", f64::from(*t) / 10.0)
            }
            LookupError::UnsupportedPingPercentile(t) => {
                write!(f, "ping percentile {:.1}% not in snapshot", f64::from(*t) / 10.0)
            }
        }
    }
}

impl std::error::Error for LookupError {}

/// An immutable, query-ready snapshot.
#[derive(Debug, Clone)]
pub struct Oracle {
    addr_levels: Vec<u16>,
    ping_levels: Vec<u16>,
    /// Fallback cells followed by each entry's cells, all row-major; the
    /// trie maps a prefix to its table's offset in this arena.
    cells: Vec<u64>,
    /// `(prefix, len)` of each entry, parallel to table order.
    prefixes: Vec<(u32, u8)>,
    trie: PrefixTrie<u32>,
    /// Identity of the snapshot this oracle was built from
    /// ([`snapshot_checksum`]) — what `SnapshotInfo` reports and what a
    /// delta reload's base check compares against.
    checksum: u64,
}

/// Shared, swappable access to the serving oracle — the runtime's
/// epoch-swap [`Slot`] behind zero-downtime reloads (DESIGN.md §12).
/// Cheap to clone; all clones publish to and read from the same slot.
/// Its version is the "snapshot version" the admin plane reports: 1 at
/// boot, +1 per successful publish.
pub type OracleHandle = Slot<Oracle>;

/// One shard's cached view of the [`OracleHandle`]: one acquire load per
/// request unless a publish happened. Not `Sync` by design: each shard
/// owns one.
pub type OracleReader = SlotReader<Oracle>;

impl Oracle {
    /// Build from a validated snapshot.
    pub fn from_snapshot(snap: TimeoutSnapshot) -> Result<Oracle, OracleError> {
        snap.validate()?;
        let checksum = snapshot_checksum(&snap);
        let per_table = snap.cell_count();
        let mut cells = Vec::with_capacity(per_table * (1 + snap.entries.len()));
        cells.extend_from_slice(&snap.fallback);
        let mut trie = PrefixTrie::new();
        let mut prefixes = Vec::with_capacity(snap.entries.len());
        for (i, e) in snap.entries.iter().enumerate() {
            cells.extend_from_slice(&e.cells);
            trie.insert(e.prefix, e.len, (i + 1) as u32);
            prefixes.push((e.prefix, e.len));
        }
        Ok(Oracle {
            addr_levels: snap.address_pct_tenths,
            ping_levels: snap.ping_pct_tenths,
            cells,
            prefixes,
            trie,
            checksum,
        })
    }

    /// Number of per-prefix tables.
    pub fn entry_count(&self) -> usize {
        self.prefixes.len()
    }

    /// Identity of the snapshot this oracle serves — the fletcher-64
    /// trailer checksum of its canonical encoding.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Reconstruct the canonical snapshot this oracle was built from.
    /// Exact inverse of [`from_snapshot`](Oracle::from_snapshot) (same
    /// bytes, same [`checksum`](Oracle::checksum)) — the base a delta
    /// reload applies against without keeping a second copy resident.
    pub fn to_snapshot(&self) -> TimeoutSnapshot {
        let per_table = self.addr_levels.len() * self.ping_levels.len();
        TimeoutSnapshot {
            address_pct_tenths: self.addr_levels.clone(),
            ping_pct_tenths: self.ping_levels.clone(),
            fallback: self.cells[..per_table].to_vec(),
            entries: self
                .prefixes
                .iter()
                .enumerate()
                .map(|(i, &(prefix, len))| beware_dataset::snapshot::SnapshotEntry {
                    prefix,
                    len,
                    cells: self.cells[(i + 1) * per_table..(i + 2) * per_table].to_vec(),
                })
                .collect(),
        }
    }

    /// The address-percentile levels served, tenths of a percent.
    pub fn addr_levels(&self) -> &[u16] {
        &self.addr_levels
    }

    /// The ping-percentile levels served, tenths of a percent.
    pub fn ping_levels(&self) -> &[u16] {
        &self.ping_levels
    }

    /// `(prefix, len)` of every entry, in snapshot (ascending) order.
    pub fn prefixes(&self) -> &[(u32, u8)] {
        &self.prefixes
    }

    /// Answer a query: longest-prefix-match `addr`, fall back to the
    /// global table, and read the cell at the requested coverage levels.
    pub fn lookup(
        &self,
        addr: u32,
        addr_pct_tenths: u16,
        ping_pct_tenths: u16,
    ) -> Result<Lookup, LookupError> {
        let ri = self
            .addr_levels
            .iter()
            .position(|&l| l == addr_pct_tenths)
            .ok_or(LookupError::UnsupportedAddressPercentile(addr_pct_tenths))?;
        let ci = self
            .ping_levels
            .iter()
            .position(|&l| l == ping_pct_tenths)
            .ok_or(LookupError::UnsupportedPingPercentile(ping_pct_tenths))?;
        let cell = ri * self.ping_levels.len() + ci;
        let (status, table, prefix, prefix_len) = match self.trie.lookup(addr) {
            Some(&idx) => {
                let (p, l) = self.prefixes[(idx - 1) as usize];
                (Status::Exact, idx as usize, p, l)
            }
            None => (Status::Fallback, 0, 0, 0),
        };
        let per_table = self.addr_levels.len() * self.ping_levels.len();
        Ok(Lookup {
            status,
            timeout_bits: self.cells[table * per_table + cell],
            prefix,
            prefix_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beware_dataset::snapshot::SnapshotEntry;

    fn snap() -> TimeoutSnapshot {
        TimeoutSnapshot {
            address_pct_tenths: vec![500, 950],
            ping_pct_tenths: vec![950, 990],
            // fallback cells: [f00 f01; f10 f11]
            fallback: vec![0.5f64.to_bits(), 0.9f64.to_bits(), 5.0f64.to_bits(), 60.0f64.to_bits()],
            entries: vec![
                SnapshotEntry { prefix: 0x0a000000, len: 8, cells: vec![1.0f64.to_bits(); 4] },
                SnapshotEntry {
                    prefix: 0x0a010000,
                    len: 16,
                    cells: vec![
                        2.0f64.to_bits(),
                        2.5f64.to_bits(),
                        3.0f64.to_bits(),
                        3.5f64.to_bits(),
                    ],
                },
            ],
        }
    }

    #[test]
    fn longest_prefix_then_fallback() {
        let o = Oracle::from_snapshot(snap()).unwrap();
        assert_eq!(o.entry_count(), 2);

        let fine = o.lookup(0x0a010203, 950, 990).unwrap();
        assert_eq!(fine.status, Status::Exact);
        assert_eq!((fine.prefix, fine.prefix_len), (0x0a010000, 16));
        assert_eq!(fine.timeout_secs(), 3.5);

        let coarse = o.lookup(0x0a990000, 500, 950).unwrap();
        assert_eq!((coarse.prefix, coarse.prefix_len), (0x0a000000, 8));
        assert_eq!(coarse.timeout_secs(), 1.0);

        let fb = o.lookup(0xc0000201, 950, 990).unwrap();
        assert_eq!(fb.status, Status::Fallback);
        assert_eq!((fb.prefix, fb.prefix_len), (0, 0));
        assert_eq!(fb.timeout_secs(), 60.0);
    }

    #[test]
    fn cell_indexing_is_row_major() {
        let o = Oracle::from_snapshot(snap()).unwrap();
        assert_eq!(o.lookup(0xc0000201, 500, 950).unwrap().timeout_secs(), 0.5);
        assert_eq!(o.lookup(0xc0000201, 500, 990).unwrap().timeout_secs(), 0.9);
        assert_eq!(o.lookup(0xc0000201, 950, 950).unwrap().timeout_secs(), 5.0);
    }

    #[test]
    fn unsupported_levels_rejected() {
        let o = Oracle::from_snapshot(snap()).unwrap();
        assert_eq!(o.lookup(1, 800, 950), Err(LookupError::UnsupportedAddressPercentile(800)));
        assert_eq!(o.lookup(1, 950, 10), Err(LookupError::UnsupportedPingPercentile(10)));
    }

    #[test]
    fn invalid_snapshot_rejected() {
        let mut bad = snap();
        bad.entries.swap(0, 1);
        assert_eq!(
            Oracle::from_snapshot(bad).unwrap_err(),
            OracleError::Snapshot(SnapshotError::EntriesNotAscending)
        );
    }

    #[test]
    fn to_snapshot_is_the_exact_inverse() {
        let s = snap();
        let o = Oracle::from_snapshot(s.clone()).unwrap();
        assert_eq!(o.to_snapshot(), s);
        assert_eq!(o.checksum(), snapshot_checksum(&s));
        // Rebuilding from the reconstruction preserves the identity.
        assert_eq!(Oracle::from_snapshot(o.to_snapshot()).unwrap().checksum(), o.checksum());
    }
}
