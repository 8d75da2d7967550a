//! Timeout-oracle snapshot: per-prefix timeout tables in a compact,
//! canonical binary format — plus a delta format for hot reloads.
//!
//! A snapshot is what `beware serve` loads at startup: the offline
//! pipeline's per-address latency distributions, grouped by prefix and
//! reduced to `TimeoutTable`-style cells ("minimum timeout capturing c%
//! of pings from r% of addresses"), plus a global fallback table for
//! addresses no prefix covers. Cells are stored as raw `f64` bits so a
//! served answer can byte-match the offline computation exactly.
//!
//! Layout (all little-endian):
//!
//! ```text
//! header:  magic "BWTS" | version u16 | reserved u16
//! body:    r_count u16 | c_count u16 | entry count u32
//!          address-percentile levels   u16 × r_count   (tenths of a %)
//!          ping-percentile levels      u16 × c_count   (tenths of a %)
//!          fallback cells              u64 × r·c       (f64 bits, row-major)
//!          entries, each: prefix u32 | len u8 | cells u64 × r·c
//! trailer: fletcher-64 checksum u64 over all body bytes
//! ```
//!
//! The encoding is **canonical**: [`TimeoutSnapshot::validate`] enforces
//! strictly increasing percentile levels, entries sorted strictly
//! ascending by `(prefix, len)` with sub-prefix bits zeroed, and exact
//! cell counts. A snapshot that decodes therefore re-encodes to the same
//! bytes — the property the dataset proptests pin down. The trailer
//! checksum of that canonical encoding doubles as the snapshot's
//! **identity** ([`snapshot_checksum`]): two snapshots are byte-identical
//! iff their checksums agree, which is what the delta format and the
//! serve path's `SnapshotInfo` admin op key on.
//!
//! # Deltas
//!
//! A recomputed snapshot usually changes a handful of prefixes; shipping
//! the full table for every reload wastes bandwidth and reload time.
//! [`SnapshotDelta`] carries only the difference against a **base**
//! snapshot, pinned by checksum on both ends:
//!
//! ```text
//! header:  magic "BWTD" | version u16 | reserved u16
//! body:    base_checksum u64 | target_checksum u64
//!          r_count u16 | c_count u16
//!          removed count u32 | upsert count u32 | fallback flag u8
//!          fallback cells u64 × r·c                (only when flag = 1)
//!          removed, each: prefix u32 | len u8      (strictly ascending)
//!          upserts, each: prefix u32 | len u8 | cells u64 × r·c (ascending)
//! trailer: fletcher-64 checksum u64 over all body bytes
//! ```
//!
//! The delta carries only the grid's *shape* (`r_count × c_count`), not
//! the level values — `base_checksum` covers the base's level vectors, so
//! a delta can never silently apply across a grid change. Application is
//! validate-on-apply end to end: [`SnapshotDelta::apply`] refuses a stale
//! base ([`SnapshotError::StaleDelta`]), re-validates the merged result,
//! and finally checks the result's checksum against `target_checksum` —
//! `apply(base, diff(base, target))` is byte-identical to `target` or it
//! is an error, never something in between.

use crate::binfmt::{DecodeError, Fletcher};
use beware_wire::Cursor;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"BWTS";
const DELTA_MAGIC: &[u8; 4] = b"BWTD";
const VERSION: u16 = 1;

/// Hard cap on entries accepted by the decoder — a full /16 split into
/// host routes is far beyond any realistic survey, and the cap keeps a
/// corrupt count field from provoking a huge allocation.
const MAX_ENTRIES: u64 = 1 << 26;

/// Percentile levels are carried as tenths of a percent (`950` = 95.0%),
/// exact for every level the paper uses and free of float comparisons on
/// the wire. This bound (`1000` = 100.0%) is the largest valid level.
pub const MAX_PCT_TENTHS: u16 = 1000;

/// Why a snapshot or snapshot delta failed validation, construction, or
/// application.
///
/// Implements [`std::error::Error`]; `#[non_exhaustive]` so future
/// invariants can gain variants without a breaking change. The
/// stale/mismatch variants carry both checksums so an operator log line
/// states exactly which snapshot generation was expected.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A percentile axis has no levels.
    EmptyLevels,
    /// A percentile level is outside `(0, 100.0]` (tenths of a percent).
    LevelOutOfRange(u16),
    /// Percentile levels are not strictly increasing.
    LevelsNotIncreasing,
    /// The fallback table's cell count does not match the grid.
    FallbackCellCount {
        /// Cells the grid requires (`r × c`).
        expected: usize,
        /// Cells actually present.
        got: usize,
    },
    /// A prefix length exceeds 32.
    PrefixTooLong(u8),
    /// A prefix has bits set below its length.
    PrefixHostBits {
        /// The offending prefix bits.
        prefix: u32,
        /// Its declared length.
        len: u8,
    },
    /// An entry's cell count does not match the grid.
    EntryCellCount {
        /// The entry's prefix.
        prefix: u32,
        /// The entry's prefix length.
        len: u8,
        /// Cells the grid requires (`r × c`).
        expected: usize,
        /// Cells actually present.
        got: usize,
    },
    /// Entries (or delta keys) are not strictly ascending by
    /// `(prefix, len)`.
    EntriesNotAscending,
    /// No address had usable samples (snapshot builder).
    NoSamples,
    /// A delta's grid shape does not match the snapshot it is diffed
    /// from or applied to.
    GridMismatch,
    /// The delta was computed against a different base snapshot than the
    /// one it is being applied to.
    StaleDelta {
        /// Base checksum the delta declares.
        expected: u64,
        /// Checksum of the snapshot it was applied to.
        got: u64,
    },
    /// Applying the delta did not reproduce the declared target snapshot.
    TargetMismatch {
        /// Target checksum the delta declares.
        expected: u64,
        /// Checksum of the snapshot the merge produced.
        got: u64,
    },
    /// The delta removes a prefix the base snapshot does not contain.
    RemovedKeyAbsent {
        /// The absent prefix.
        prefix: u32,
        /// Its declared length.
        len: u8,
    },
    /// The delta both removes and upserts the same key.
    RemoveUpsertOverlap {
        /// The doubly-claimed prefix.
        prefix: u32,
        /// Its declared length.
        len: u8,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::EmptyLevels => f.write_str("empty percentile levels"),
            SnapshotError::LevelOutOfRange(l) => {
                write!(f, "percentile level {l} out of (0, 100.0] range")
            }
            SnapshotError::LevelsNotIncreasing => {
                f.write_str("percentile levels not strictly increasing")
            }
            SnapshotError::FallbackCellCount { expected, got } => {
                write!(f, "fallback cell count {got} does not match levels (expected {expected})")
            }
            SnapshotError::PrefixTooLong(len) => write!(f, "prefix length {len} exceeds 32"),
            SnapshotError::PrefixHostBits { prefix, len } => {
                write!(f, "prefix {prefix:#010x}/{len} has bits below its length")
            }
            SnapshotError::EntryCellCount { prefix, len, expected, got } => write!(
                f,
                "entry {prefix:#010x}/{len} cell count {got} does not match levels (expected {expected})"
            ),
            SnapshotError::EntriesNotAscending => {
                f.write_str("entries not strictly ascending by (prefix, len)")
            }
            SnapshotError::NoSamples => f.write_str("no usable samples"),
            SnapshotError::GridMismatch => {
                f.write_str("delta grid shape does not match the base snapshot")
            }
            SnapshotError::StaleDelta { expected, got } => write!(
                f,
                "stale delta: computed against base {expected:#018x}, applied to {got:#018x}"
            ),
            SnapshotError::TargetMismatch { expected, got } => write!(
                f,
                "delta apply produced {got:#018x}, delta declares target {expected:#018x}"
            ),
            SnapshotError::RemovedKeyAbsent { prefix, len } => {
                write!(f, "delta removes {prefix:#010x}/{len}, absent from the base")
            }
            SnapshotError::RemoveUpsertOverlap { prefix, len } => {
                write!(f, "delta both removes and upserts {prefix:#010x}/{len}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One prefix's timeout table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Network-order prefix bits; bits below `len` are zero.
    pub prefix: u32,
    /// Prefix length, 0–32.
    pub len: u8,
    /// Row-major `r × c` cells as `f64` bits.
    pub cells: Vec<u64>,
}

impl SnapshotEntry {
    /// The cell at row `ri`, column `ci`, as a float.
    pub fn cell(&self, ri: usize, ci: usize, c_count: usize) -> f64 {
        f64::from_bits(self.cells[ri * c_count + ci])
    }
}

/// A complete oracle snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeoutSnapshot {
    /// Address-percentile (row) levels, tenths of a percent, strictly
    /// increasing.
    pub address_pct_tenths: Vec<u16>,
    /// Ping-percentile (column) levels, tenths of a percent, strictly
    /// increasing.
    pub ping_pct_tenths: Vec<u16>,
    /// Global fallback table (`r × c` cells, `f64` bits, row-major) used
    /// when no prefix covers a queried address.
    pub fallback: Vec<u64>,
    /// Per-prefix tables, sorted strictly ascending by `(prefix, len)`.
    pub entries: Vec<SnapshotEntry>,
}

impl TimeoutSnapshot {
    /// Cells per table (`r × c`).
    pub fn cell_count(&self) -> usize {
        self.address_pct_tenths.len() * self.ping_pct_tenths.len()
    }

    /// Check the canonical-form invariants the codec relies on.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        validate_levels(&self.address_pct_tenths)?;
        validate_levels(&self.ping_pct_tenths)?;
        let cells = self.cell_count();
        if self.fallback.len() != cells {
            return Err(SnapshotError::FallbackCellCount {
                expected: cells,
                got: self.fallback.len(),
            });
        }
        let mut prev: Option<(u32, u8)> = None;
        for e in &self.entries {
            validate_key(e.prefix, e.len, &mut prev)?;
            if e.cells.len() != cells {
                return Err(SnapshotError::EntryCellCount {
                    prefix: e.prefix,
                    len: e.len,
                    expected: cells,
                    got: e.cells.len(),
                });
            }
        }
        Ok(())
    }
}

fn validate_levels(levels: &[u16]) -> Result<(), SnapshotError> {
    if levels.is_empty() {
        return Err(SnapshotError::EmptyLevels);
    }
    if let Some(&l) = levels.iter().find(|&&l| l == 0 || l > MAX_PCT_TENTHS) {
        return Err(SnapshotError::LevelOutOfRange(l));
    }
    if levels.windows(2).any(|w| w[0] >= w[1]) {
        return Err(SnapshotError::LevelsNotIncreasing);
    }
    Ok(())
}

/// Shared key validation for snapshot entries and delta key lists:
/// length in range, host bits clear, strictly ascending after `prev`.
fn validate_key(prefix: u32, len: u8, prev: &mut Option<(u32, u8)>) -> Result<(), SnapshotError> {
    if len > 32 {
        return Err(SnapshotError::PrefixTooLong(len));
    }
    if prefix & !prefix_mask(len) != 0 {
        return Err(SnapshotError::PrefixHostBits { prefix, len });
    }
    if prev.is_some_and(|p| p >= (prefix, len)) {
        return Err(SnapshotError::EntriesNotAscending);
    }
    *prev = Some((prefix, len));
    Ok(())
}

/// All-ones mask of the top `len` bits (`len` ≤ 32).
pub fn prefix_mask(len: u8) -> u32 {
    match len {
        0 => 0,
        32 => u32::MAX,
        n => !(u32::MAX >> n),
    }
}

/// Encode the body section (everything between header and trailer) —
/// the bytes the trailer checksum covers.
fn encode_body(snap: &TimeoutSnapshot) -> Vec<u8> {
    let cells = snap.cell_count();
    let mut body = Vec::with_capacity(
        8 + 2 * (snap.address_pct_tenths.len() + snap.ping_pct_tenths.len())
            + 8 * cells * (1 + snap.entries.len())
            + 5 * snap.entries.len(),
    );
    body.extend_from_slice(&(snap.address_pct_tenths.len() as u16).to_le_bytes());
    body.extend_from_slice(&(snap.ping_pct_tenths.len() as u16).to_le_bytes());
    body.extend_from_slice(&(snap.entries.len() as u32).to_le_bytes());
    for &l in &snap.address_pct_tenths {
        body.extend_from_slice(&l.to_le_bytes());
    }
    for &l in &snap.ping_pct_tenths {
        body.extend_from_slice(&l.to_le_bytes());
    }
    for &c in &snap.fallback {
        body.extend_from_slice(&c.to_le_bytes());
    }
    for e in &snap.entries {
        body.extend_from_slice(&e.prefix.to_le_bytes());
        body.push(e.len);
        for &c in &e.cells {
            body.extend_from_slice(&c.to_le_bytes());
        }
    }
    body
}

/// The snapshot's identity: the fletcher-64 digest of its canonical body
/// encoding — exactly the trailer checksum [`write_snapshot`] emits, so
/// the identity of a snapshot file can be read off its last 8 bytes.
/// Two snapshots encode byte-identically iff their checksums agree.
pub fn snapshot_checksum(snap: &TimeoutSnapshot) -> u64 {
    Fletcher::of(&encode_body(snap))
}

/// Serialize a snapshot. Fails with `InvalidInput` when the snapshot is
/// not in canonical form (see [`TimeoutSnapshot::validate`]).
pub fn write_snapshot<W: Write>(out: &mut W, snap: &TimeoutSnapshot) -> io::Result<()> {
    snap.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    write_framed(out, MAGIC, &encode_body(snap))
}

/// The 8-byte header: magic, version, reserved.
fn header(magic: &[u8; 4]) -> Vec<u8> {
    [&magic[..], &VERSION.to_le_bytes(), &[0, 0]].concat()
}

/// Write `body` between its header and its checksum trailer.
fn write_framed<W: Write>(out: &mut W, magic: &[u8; 4], body: &[u8]) -> io::Result<()> {
    out.write_all(&header(magic))?;
    out.write_all(body)?;
    out.write_all(&Fletcher::of(body).to_le_bytes())
}

/// The cell count of an `r × c` grid, checked before anything is
/// allocated from it. Levels are strictly increasing in
/// `(0, MAX_PCT_TENTHS]`, so no valid axis has more than
/// [`MAX_PCT_TENTHS`] of them.
fn grid_cells(r_count: u16, c_count: u16) -> Result<usize, DecodeError> {
    if r_count == 0 || c_count == 0 {
        return Err(DecodeError::Corrupt("empty percentile levels"));
    }
    if r_count > MAX_PCT_TENTHS || c_count > MAX_PCT_TENTHS {
        return Err(DecodeError::Corrupt("percentile level count exceeds sanity cap"));
    }
    Ok(usize::from(r_count) * usize::from(c_count))
}

/// Reads a snapshot or delta body section by section, keeping every body
/// byte for the trailer checksum. `Fletcher::update` pads each call to
/// 4-byte words, so the digest depends on call boundaries; the body is
/// hashed in one call exactly as the writers do.
struct BodyReader<'a, R> {
    input: &'a mut R,
    body: Vec<u8>,
}

impl<'a, R: Read> BodyReader<'a, R> {
    /// Check the header's magic and version; `errors` are the messages
    /// for a mismatch of each.
    fn open(
        input: &'a mut R,
        magic: &[u8; 4],
        errors: [&'static str; 2],
    ) -> Result<Self, DecodeError> {
        let mut header = [0u8; 8];
        input.read_exact(&mut header)?;
        let mut h = Cursor::new(&header);
        if h.take(4)? != magic {
            return Err(DecodeError::Corrupt(errors[0]));
        }
        if h.u16()? != VERSION {
            return Err(DecodeError::Corrupt(errors[1]));
        }
        Ok(BodyReader { input, body: Vec::new() })
    }

    /// The next `n` body bytes.
    fn section(&mut self, n: usize) -> io::Result<Cursor<'_>> {
        let at = self.body.len();
        self.body.resize(at + n, 0);
        self.input.read_exact(&mut self.body[at..])?;
        Ok(Cursor::new(&self.body[at..]))
    }

    /// `n` percentile levels.
    fn levels(&mut self, n: u16) -> io::Result<Vec<u16>> {
        let mut b = self.section(2 * usize::from(n))?;
        (0..n).map(|_| Ok(b.u16()?)).collect()
    }

    /// `n` cells of `f64` bits.
    fn cells(&mut self, n: usize) -> io::Result<Vec<u64>> {
        let mut b = self.section(8 * n)?;
        (0..n).map(|_| Ok(b.u64()?)).collect()
    }

    /// A `prefix u32 | len u8` key.
    fn key(&mut self) -> io::Result<(u32, u8)> {
        let mut b = self.section(5)?;
        Ok((b.u32()?, b.u8()?))
    }

    /// A key followed by its cells.
    fn entry(&mut self, cells: usize) -> io::Result<SnapshotEntry> {
        let (prefix, len) = self.key()?;
        Ok(SnapshotEntry { prefix, len, cells: self.cells(cells)? })
    }

    /// Read the trailer and check it against the body.
    fn finish(self) -> Result<(), DecodeError> {
        let mut trailer = [0u8; 8];
        self.input.read_exact(&mut trailer)?;
        let (stored, computed) = (u64::from_le_bytes(trailer), Fletcher::of(&self.body));
        if stored != computed {
            return Err(DecodeError::Checksum { stored, computed });
        }
        Ok(())
    }
}

/// Deserialize a snapshot previously written by [`write_snapshot`].
/// The decoded snapshot is re-validated, so `read → write` reproduces the
/// input bytes exactly.
pub fn read_snapshot<R: Read>(input: &mut R) -> Result<TimeoutSnapshot, DecodeError> {
    let errors = ["bad snapshot magic", "unsupported snapshot version"];
    let mut r = BodyReader::open(input, MAGIC, errors)?;
    let mut c = r.section(8)?;
    let (r_count, c_count, entry_count) = (c.u16()?, c.u16()?, u64::from(c.u32()?));
    let cells = grid_cells(r_count, c_count)?;
    if entry_count > MAX_ENTRIES {
        return Err(DecodeError::Corrupt("entry count exceeds sanity cap"));
    }
    let address_pct_tenths = r.levels(r_count)?;
    let ping_pct_tenths = r.levels(c_count)?;
    let fallback = r.cells(cells)?;
    let mut entries = Vec::with_capacity(entry_count.min(1 << 16) as usize);
    for _ in 0..entry_count {
        entries.push(r.entry(cells)?);
    }
    r.finish()?;

    let snap = TimeoutSnapshot { address_pct_tenths, ping_pct_tenths, fallback, entries };
    snap.validate().map_err(DecodeError::Invalid)?;
    Ok(snap)
}

/// The difference between two snapshots sharing a percentile grid: the
/// payload of a hot *delta reload*. See the module docs for the wire
/// layout and the validate-on-apply contract.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    /// Identity ([`snapshot_checksum`]) of the snapshot this delta was
    /// diffed against. [`apply`](SnapshotDelta::apply) refuses any other
    /// base.
    pub base_checksum: u64,
    /// Identity of the snapshot applying this delta must reproduce,
    /// bit for bit.
    pub target_checksum: u64,
    /// Address-percentile (row) level count of both snapshots.
    pub r_count: u16,
    /// Ping-percentile (column) level count of both snapshots.
    pub c_count: u16,
    /// Replacement fallback table, when the fallback changed.
    pub new_fallback: Option<Vec<u64>>,
    /// `(prefix, len)` keys present in the base but not the target,
    /// strictly ascending.
    pub removed: Vec<(u32, u8)>,
    /// Entries added or changed in the target, strictly ascending by
    /// `(prefix, len)`.
    pub upserts: Vec<SnapshotEntry>,
}

impl SnapshotDelta {
    /// Number of per-prefix changes the delta carries (removals plus
    /// upserts; the fallback, when it changed, counts as one more).
    pub fn change_count(&self) -> usize {
        self.removed.len() + self.upserts.len() + usize::from(self.new_fallback.is_some())
    }

    /// Check the delta's own canonical-form invariants (key ordering,
    /// cell counts, no remove/upsert overlap). Base compatibility is
    /// checked by [`apply`](SnapshotDelta::apply), not here.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        if self.r_count == 0 || self.c_count == 0 {
            return Err(SnapshotError::EmptyLevels);
        }
        let cells = usize::from(self.r_count) * usize::from(self.c_count);
        if let Some(fb) = &self.new_fallback {
            if fb.len() != cells {
                return Err(SnapshotError::FallbackCellCount { expected: cells, got: fb.len() });
            }
        }
        let mut prev: Option<(u32, u8)> = None;
        for &(prefix, len) in &self.removed {
            validate_key(prefix, len, &mut prev)?;
        }
        prev = None;
        for e in &self.upserts {
            validate_key(e.prefix, e.len, &mut prev)?;
            if e.cells.len() != cells {
                return Err(SnapshotError::EntryCellCount {
                    prefix: e.prefix,
                    len: e.len,
                    expected: cells,
                    got: e.cells.len(),
                });
            }
        }
        // Both lists are now known sorted; a merge walk finds overlap.
        let mut ri = self.removed.iter().peekable();
        for e in &self.upserts {
            let key = (e.prefix, e.len);
            while ri.next_if(|&&r| r < key).is_some() {}
            if ri.peek().is_some_and(|&&r| r == key) {
                return Err(SnapshotError::RemoveUpsertOverlap { prefix: e.prefix, len: e.len });
            }
        }
        Ok(())
    }

    /// Apply the delta to `base`, producing the target snapshot.
    ///
    /// Validate-on-apply, end to end: the base's checksum must equal
    /// [`base_checksum`](Self::base_checksum) (else
    /// [`SnapshotError::StaleDelta`]), every removed key must exist in
    /// the base, the merged result is re-validated, and its checksum must
    /// equal [`target_checksum`](Self::target_checksum) — so a successful
    /// apply is **byte-identical** to the full rebuilt snapshot.
    pub fn apply(&self, base: &TimeoutSnapshot) -> Result<TimeoutSnapshot, SnapshotError> {
        self.validate()?;
        base.validate()?;
        if base.address_pct_tenths.len() != usize::from(self.r_count)
            || base.ping_pct_tenths.len() != usize::from(self.c_count)
        {
            return Err(SnapshotError::GridMismatch);
        }
        let got = snapshot_checksum(base);
        if got != self.base_checksum {
            return Err(SnapshotError::StaleDelta { expected: self.base_checksum, got });
        }

        let mut entries = Vec::with_capacity(base.entries.len() + self.upserts.len());
        let mut removed = self.removed.iter().copied().peekable();
        let mut upserts = self.upserts.iter().cloned().peekable();
        for e in &base.entries {
            let key = (e.prefix, e.len);
            while upserts.peek().is_some_and(|u| (u.prefix, u.len) < key) {
                entries.push(upserts.next().expect("peeked"));
            }
            if let Some(&(prefix, len)) = removed.peek() {
                if (prefix, len) < key {
                    return Err(SnapshotError::RemovedKeyAbsent { prefix, len });
                }
                if (prefix, len) == key {
                    removed.next();
                    continue;
                }
            }
            if upserts.peek().is_some_and(|u| (u.prefix, u.len) == key) {
                entries.push(upserts.next().expect("peeked"));
                continue;
            }
            entries.push(e.clone());
        }
        entries.extend(upserts);
        if let Some(&(prefix, len)) = removed.peek() {
            return Err(SnapshotError::RemovedKeyAbsent { prefix, len });
        }

        let out = TimeoutSnapshot {
            address_pct_tenths: base.address_pct_tenths.clone(),
            ping_pct_tenths: base.ping_pct_tenths.clone(),
            fallback: self.new_fallback.clone().unwrap_or_else(|| base.fallback.clone()),
            entries,
        };
        out.validate()?;
        let got = snapshot_checksum(&out);
        if got != self.target_checksum {
            return Err(SnapshotError::TargetMismatch { expected: self.target_checksum, got });
        }
        Ok(out)
    }
}

/// Compute the delta that turns `base` into `target`. Both snapshots
/// must be canonical and share the same percentile grid — a grid change
/// is a full reload, not a delta.
pub fn diff_snapshot(
    base: &TimeoutSnapshot,
    target: &TimeoutSnapshot,
) -> Result<SnapshotDelta, SnapshotError> {
    base.validate()?;
    target.validate()?;
    if base.address_pct_tenths != target.address_pct_tenths
        || base.ping_pct_tenths != target.ping_pct_tenths
    {
        return Err(SnapshotError::GridMismatch);
    }

    let mut removed = Vec::new();
    let mut upserts = Vec::new();
    let mut b = base.entries.iter().peekable();
    let mut t = target.entries.iter().peekable();
    loop {
        match (b.peek(), t.peek()) {
            (Some(be), Some(te)) => {
                let bk = (be.prefix, be.len);
                let tk = (te.prefix, te.len);
                match bk.cmp(&tk) {
                    std::cmp::Ordering::Less => {
                        removed.push(bk);
                        b.next();
                    }
                    std::cmp::Ordering::Greater => {
                        upserts.push((*te).clone());
                        t.next();
                    }
                    std::cmp::Ordering::Equal => {
                        if be.cells != te.cells {
                            upserts.push((*te).clone());
                        }
                        b.next();
                        t.next();
                    }
                }
            }
            (Some(be), None) => {
                removed.push((be.prefix, be.len));
                b.next();
            }
            (None, Some(te)) => {
                upserts.push((*te).clone());
                t.next();
            }
            (None, None) => break,
        }
    }

    Ok(SnapshotDelta {
        base_checksum: snapshot_checksum(base),
        target_checksum: snapshot_checksum(target),
        r_count: base.address_pct_tenths.len() as u16,
        c_count: base.ping_pct_tenths.len() as u16,
        new_fallback: (base.fallback != target.fallback).then(|| target.fallback.clone()),
        removed,
        upserts,
    })
}

/// Serialize a delta. Fails with `InvalidInput` when the delta is not in
/// canonical form (see [`SnapshotDelta::validate`]).
pub fn write_delta<W: Write>(out: &mut W, delta: &SnapshotDelta) -> io::Result<()> {
    delta.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let cells = usize::from(delta.r_count) * usize::from(delta.c_count);
    let mut body = Vec::with_capacity(
        29 + 8 * cells * (usize::from(delta.new_fallback.is_some()) + delta.upserts.len())
            + 5 * (delta.removed.len() + delta.upserts.len()),
    );
    body.extend_from_slice(&delta.base_checksum.to_le_bytes());
    body.extend_from_slice(&delta.target_checksum.to_le_bytes());
    body.extend_from_slice(&delta.r_count.to_le_bytes());
    body.extend_from_slice(&delta.c_count.to_le_bytes());
    body.extend_from_slice(&(delta.removed.len() as u32).to_le_bytes());
    body.extend_from_slice(&(delta.upserts.len() as u32).to_le_bytes());
    body.push(u8::from(delta.new_fallback.is_some()));
    if let Some(fb) = &delta.new_fallback {
        for &c in fb {
            body.extend_from_slice(&c.to_le_bytes());
        }
    }
    for &(prefix, len) in &delta.removed {
        body.extend_from_slice(&prefix.to_le_bytes());
        body.push(len);
    }
    for e in &delta.upserts {
        body.extend_from_slice(&e.prefix.to_le_bytes());
        body.push(e.len);
        for &c in &e.cells {
            body.extend_from_slice(&c.to_le_bytes());
        }
    }
    write_framed(out, DELTA_MAGIC, &body)
}

/// Deserialize a delta previously written by [`write_delta`]. The decoded
/// delta is re-validated, so `read → write` reproduces the input bytes
/// exactly.
pub fn read_delta<R: Read>(input: &mut R) -> Result<SnapshotDelta, DecodeError> {
    let mut r =
        BodyReader::open(input, DELTA_MAGIC, ["bad delta magic", "unsupported delta version"])?;
    let mut c = r.section(29)?;
    let (base_checksum, target_checksum) = (c.u64()?, c.u64()?);
    let (r_count, c_count) = (c.u16()?, c.u16()?);
    let removed_count = u64::from(c.u32()?);
    let upsert_count = u64::from(c.u32()?);
    let fallback_flag = c.u8()?;
    let cells = grid_cells(r_count, c_count)?;
    if removed_count > MAX_ENTRIES || upsert_count > MAX_ENTRIES {
        return Err(DecodeError::Corrupt("entry count exceeds sanity cap"));
    }
    if fallback_flag > 1 {
        return Err(DecodeError::Corrupt("bad fallback flag"));
    }
    let new_fallback = if fallback_flag == 1 { Some(r.cells(cells)?) } else { None };
    let mut removed = Vec::with_capacity(removed_count.min(1 << 16) as usize);
    for _ in 0..removed_count {
        removed.push(r.key()?);
    }
    let mut upserts = Vec::with_capacity(upsert_count.min(1 << 16) as usize);
    for _ in 0..upsert_count {
        upserts.push(r.entry(cells)?);
    }
    r.finish()?;

    let delta = SnapshotDelta {
        base_checksum,
        target_checksum,
        r_count,
        c_count,
        new_fallback,
        removed,
        upserts,
    };
    delta.validate().map_err(DecodeError::Invalid)?;
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeoutSnapshot {
        TimeoutSnapshot {
            address_pct_tenths: vec![500, 950, 990],
            ping_pct_tenths: vec![950, 980],
            fallback: vec![1.0f64.to_bits(); 6],
            entries: vec![
                SnapshotEntry {
                    prefix: 0x0a000000,
                    len: 8,
                    cells: (0..6).map(|i| (i as f64 * 0.25).to_bits()).collect(),
                },
                SnapshotEntry { prefix: 0x0a010000, len: 16, cells: vec![3.5f64.to_bits(); 6] },
                SnapshotEntry { prefix: 0xc0000207, len: 32, cells: vec![60.0f64.to_bits(); 6] },
            ],
        }
    }

    /// `sample()` with one entry changed, one removed, one added, and a
    /// new fallback — every kind of difference a delta can carry.
    fn sample_v2() -> TimeoutSnapshot {
        let mut s = sample();
        s.entries[0].cells[3] = 9.75f64.to_bits();
        s.entries.remove(2);
        s.entries.push(SnapshotEntry {
            prefix: 0xc0a80000,
            len: 16,
            cells: vec![2.25f64.to_bits(); 6],
        });
        s.fallback = vec![4.0f64.to_bits(); 6];
        s
    }

    #[test]
    fn roundtrip_and_canonical_rewrite() {
        let snap = sample();
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();
        let back = read_snapshot(&mut &buf[..]).unwrap();
        assert_eq!(back, snap);
        let mut again = Vec::new();
        write_snapshot(&mut again, &back).unwrap();
        assert_eq!(again, buf, "re-encode must be byte-identical");
    }

    #[test]
    fn checksum_is_the_trailer_and_the_identity() {
        let snap = sample();
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();
        let trailer = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
        assert_eq!(snapshot_checksum(&snap), trailer);
        assert_ne!(snapshot_checksum(&snap), snapshot_checksum(&sample_v2()));
    }

    #[test]
    fn default_route_only_snapshot() {
        let snap = TimeoutSnapshot {
            address_pct_tenths: vec![950],
            ping_pct_tenths: vec![950],
            fallback: vec![2.0f64.to_bits()],
            entries: vec![SnapshotEntry { prefix: 0, len: 0, cells: vec![1.0f64.to_bits()] }],
        };
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();
        assert_eq!(read_snapshot(&mut &buf[..]).unwrap(), snap);
    }

    #[test]
    fn non_canonical_rejected_on_write() {
        let mut unsorted = sample();
        unsorted.entries.swap(0, 1);
        assert_eq!(unsorted.validate(), Err(SnapshotError::EntriesNotAscending));
        assert!(write_snapshot(&mut Vec::new(), &unsorted).is_err());

        let mut dirty_bits = sample();
        dirty_bits.entries[0].prefix |= 1;
        assert!(matches!(dirty_bits.validate(), Err(SnapshotError::PrefixHostBits { len: 8, .. })));
        assert!(write_snapshot(&mut Vec::new(), &dirty_bits).is_err());

        let mut bad_levels = sample();
        bad_levels.ping_pct_tenths = vec![950, 950];
        assert_eq!(bad_levels.validate(), Err(SnapshotError::LevelsNotIncreasing));
        assert!(write_snapshot(&mut Vec::new(), &bad_levels).is_err());

        let mut overlong = sample();
        overlong.entries[2].len = 33;
        assert_eq!(overlong.validate(), Err(SnapshotError::PrefixTooLong(33)));
        assert!(write_snapshot(&mut Vec::new(), &overlong).is_err());
    }

    #[test]
    fn corruption_detected() {
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_snapshot(&mut &buf[..]),
            Err(DecodeError::Corrupt("bad snapshot magic"))
        ));

        let mut buf = Vec::new();
        write_snapshot(&mut buf, &sample()).unwrap();
        // Flip a bit inside a fallback cell: framing survives, the
        // checksum must not.
        let idx = 8 + 8 + 2 * 5 + 3;
        buf[idx] ^= 0x01;
        assert!(matches!(read_snapshot(&mut &buf[..]), Err(DecodeError::Checksum { .. })));

        let mut buf = Vec::new();
        write_snapshot(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(matches!(read_snapshot(&mut &buf[..]), Err(DecodeError::Io(_))));
    }

    #[test]
    fn prefix_masks() {
        assert_eq!(prefix_mask(0), 0);
        assert_eq!(prefix_mask(8), 0xff00_0000);
        assert_eq!(prefix_mask(24), 0xffff_ff00);
        assert_eq!(prefix_mask(32), u32::MAX);
    }

    #[test]
    fn delta_diff_apply_reproduces_target_bit_for_bit() {
        let base = sample();
        let target = sample_v2();
        let delta = diff_snapshot(&base, &target).unwrap();
        assert_eq!(delta.removed, vec![(0xc0000207, 32)]);
        assert_eq!(delta.upserts.len(), 2, "one change + one add");
        assert!(delta.new_fallback.is_some());
        assert_eq!(delta.change_count(), 4);

        let applied = delta.apply(&base).unwrap();
        assert_eq!(applied, target);
        let mut full = Vec::new();
        write_snapshot(&mut full, &target).unwrap();
        let mut via_delta = Vec::new();
        write_snapshot(&mut via_delta, &applied).unwrap();
        assert_eq!(via_delta, full, "apply must be byte-identical to the full rebuild");
    }

    #[test]
    fn empty_delta_applies_to_identity() {
        let base = sample();
        let delta = diff_snapshot(&base, &base).unwrap();
        assert_eq!(delta.change_count(), 0);
        assert_eq!(delta.base_checksum, delta.target_checksum);
        assert_eq!(delta.apply(&base).unwrap(), base);
    }

    #[test]
    fn empty_delta_roundtrips_through_the_codec() {
        // base == target: zero removals, zero upserts, no fallback flag —
        // the smallest legal delta must survive the wire unchanged.
        let base = sample();
        let delta = diff_snapshot(&base, &base).unwrap();
        let mut buf = Vec::new();
        write_delta(&mut buf, &delta).unwrap();
        let back = read_delta(&mut &buf[..]).unwrap();
        assert_eq!(back, delta);
        assert_eq!(back.apply(&base).unwrap(), base);
    }

    #[test]
    fn fallback_only_delta_applies_and_roundtrips() {
        // Only the fallback table differs: the delta must carry the new
        // fallback and nothing else, and apply must reproduce the target.
        let base = sample();
        let mut target = base.clone();
        target.fallback = vec![7.5f64.to_bits(); 6];
        let delta = diff_snapshot(&base, &target).unwrap();
        assert_eq!(delta.change_count(), 1);
        assert!(delta.removed.is_empty(), "no entry changed");
        assert!(delta.upserts.is_empty(), "no entry changed");
        assert_eq!(delta.new_fallback.as_deref(), Some(target.fallback.as_slice()));
        assert_eq!(delta.apply(&base).unwrap(), target);

        let mut buf = Vec::new();
        write_delta(&mut buf, &delta).unwrap();
        assert_eq!(read_delta(&mut &buf[..]).unwrap(), delta);
    }

    #[test]
    fn removal_past_the_last_base_entry_rejected() {
        // The absent key sorts *after* every base entry, so the merge walk
        // exhausts the base with the removal still pending — the tail
        // check must answer with the typed error, not a panic or a silent
        // no-op.
        let base = sample();
        let delta = SnapshotDelta {
            base_checksum: snapshot_checksum(&base),
            target_checksum: 0xdead_beef,
            r_count: 3,
            c_count: 2,
            new_fallback: None,
            removed: vec![(0xe000_0000, 8)],
            upserts: Vec::new(),
        };
        delta.validate().unwrap();
        match delta.apply(&base) {
            Err(SnapshotError::RemovedKeyAbsent { prefix: 0xe000_0000, len: 8 }) => {}
            other => panic!("expected RemovedKeyAbsent for the tail key, got {other:?}"),
        }
    }

    #[test]
    fn delta_roundtrips_through_the_codec() {
        let delta = diff_snapshot(&sample(), &sample_v2()).unwrap();
        let mut buf = Vec::new();
        write_delta(&mut buf, &delta).unwrap();
        let back = read_delta(&mut &buf[..]).unwrap();
        assert_eq!(back, delta);
        let mut again = Vec::new();
        write_delta(&mut again, &back).unwrap();
        assert_eq!(again, buf, "re-encode must be byte-identical");
    }

    #[test]
    fn delta_corruption_detected() {
        let delta = diff_snapshot(&sample(), &sample_v2()).unwrap();
        let mut buf = Vec::new();
        write_delta(&mut buf, &delta).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_delta(&mut &bad[..]), Err(DecodeError::Corrupt("bad delta magic"))));

        let mut bad = buf.clone();
        // Flip a bit inside the new fallback cells (after the 8-byte
        // header and 29-byte fixed body section).
        bad[8 + 29 + 3] ^= 0x01;
        assert!(matches!(read_delta(&mut &bad[..]), Err(DecodeError::Checksum { .. })));

        buf.truncate(buf.len() - 4);
        assert!(matches!(read_delta(&mut &buf[..]), Err(DecodeError::Io(_))));
    }

    /// Headers claiming a 65 535 × 65 535 grid: the decoders once
    /// allocated `8 × r × c` bytes (34 GB) of cells before validating the
    /// counts, and aborted.
    #[test]
    fn oversized_grid_headers_rejected_before_allocating() {
        let mut delta = header(DELTA_MAGIC);
        delta.extend_from_slice(&[0; 16]);
        delta.extend_from_slice(&[0xff; 4]);
        delta.extend_from_slice(&[0; 8]);
        delta.push(1);
        assert_eq!(delta.len(), 37);
        let err = "percentile level count exceeds sanity cap";
        assert!(matches!(read_delta(&mut &delta[..]), Err(DecodeError::Corrupt(e)) if e == err));

        let mut snap = header(MAGIC);
        snap.extend_from_slice(&[0xff; 4]);
        snap.extend_from_slice(&[0; 4]);
        snap.resize(snap.len() + 4 * 65_535, 0x01);
        assert_eq!(snap.len(), 262_156);
        assert!(matches!(read_snapshot(&mut &snap[..]), Err(DecodeError::Corrupt(e)) if e == err));

        // The largest valid axis still decodes past the check.
        let mut grid = sample();
        grid.address_pct_tenths = (1..=MAX_PCT_TENTHS).collect();
        grid.fallback = vec![0; 2 * usize::from(MAX_PCT_TENTHS)];
        grid.entries.clear();
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &grid).unwrap();
        assert_eq!(read_snapshot(&mut &buf[..]).unwrap(), grid);
    }

    #[test]
    fn stale_base_rejected() {
        let base = sample();
        let target = sample_v2();
        let delta = diff_snapshot(&base, &target).unwrap();
        // Applying to the *target* (or any other snapshot) is stale.
        match delta.apply(&target) {
            Err(SnapshotError::StaleDelta { expected, got }) => {
                assert_eq!(expected, snapshot_checksum(&base));
                assert_eq!(got, snapshot_checksum(&target));
            }
            other => panic!("expected StaleDelta, got {other:?}"),
        }
    }

    #[test]
    fn grid_mismatch_rejected() {
        let base = sample();
        let mut other_grid = sample();
        other_grid.address_pct_tenths = vec![500, 950];
        other_grid.fallback = vec![1.0f64.to_bits(); 4];
        for e in &mut other_grid.entries {
            e.cells.truncate(4);
        }
        other_grid.validate().unwrap();
        assert_eq!(diff_snapshot(&base, &other_grid), Err(SnapshotError::GridMismatch));

        let mut delta = diff_snapshot(&base, &sample_v2()).unwrap();
        delta.r_count = 2;
        delta.new_fallback = Some(vec![4.0f64.to_bits(); 4]);
        delta.upserts.clear();
        assert_eq!(delta.apply(&base), Err(SnapshotError::GridMismatch));
    }

    #[test]
    fn removed_key_absent_rejected() {
        let base = sample();
        let mut delta = diff_snapshot(&base, &base).unwrap();
        delta.removed = vec![(0x7f000000, 8)];
        match delta.apply(&base) {
            Err(SnapshotError::RemovedKeyAbsent { prefix: 0x7f000000, len: 8 }) => {}
            other => panic!("expected RemovedKeyAbsent, got {other:?}"),
        }
    }

    #[test]
    fn tampered_delta_fails_target_check() {
        let base = sample();
        let mut delta = diff_snapshot(&base, &sample_v2()).unwrap();
        // Tamper with an upsert cell: structurally valid, semantically
        // not the declared target.
        delta.upserts[0].cells[0] ^= 1;
        assert!(matches!(delta.apply(&base), Err(SnapshotError::TargetMismatch { .. })));
    }

    #[test]
    fn remove_upsert_overlap_rejected() {
        let base = sample();
        let mut delta = diff_snapshot(&base, &base).unwrap();
        delta.removed = vec![(0x0a000000, 8)];
        delta.upserts = vec![SnapshotEntry { prefix: 0x0a000000, len: 8, cells: vec![0u64; 6] }];
        assert_eq!(
            delta.validate(),
            Err(SnapshotError::RemoveUpsertOverlap { prefix: 0x0a000000, len: 8 })
        );
        assert!(write_delta(&mut Vec::new(), &delta).is_err());
    }
}
