//! Property tests: both codecs round-trip arbitrary records, and the
//! binary codec detects arbitrary single-byte corruption of record bytes.
//! The timeout-oracle snapshot codec gets the same treatment, plus its
//! canonical-form guarantee: write → read → re-write is byte-identical.
//! Every binary decoder rejects truncated and bit-flipped input with a
//! typed error and never panics.

use beware_dataset::snapshot::{self, prefix_mask, SnapshotEntry, TimeoutSnapshot};
use beware_dataset::stream::{StreamReader, StreamWriter};
use beware_dataset::{binfmt, textfmt, Record, RecordKind, RecordSink};
use proptest::prelude::*;

/// Every strict prefix of `bytes`, each of which must fail to decode.
fn truncations(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..bytes.len()).map(move |n| &bytes[..n])
}

/// `bytes` with one bit flipped.
fn flipped(bytes: &[u8], bit: proptest::sample::Index) -> Vec<u8> {
    let mut bad = bytes.to_vec();
    let bit = bit.index(8 * bad.len());
    bad[bit / 8] ^= 1 << (bit % 8);
    bad
}

/// Drain a survey stream; `Err` if the header or any record fails.
fn read_stream(bytes: &[u8]) -> Result<Vec<Record>, beware_dataset::stream::StreamError> {
    StreamReader::new(bytes)?.collect()
}

fn arb_record() -> impl Strategy<Value = Record> {
    (any::<u32>(), any::<u32>(), arb_kind()).prop_map(|(addr, time_s, kind)| Record {
        addr,
        time_s,
        kind,
    })
}

fn arb_kind() -> impl Strategy<Value = RecordKind> {
    prop_oneof![
        any::<u32>().prop_map(|rtt_us| RecordKind::Matched { rtt_us }),
        Just(RecordKind::Timeout),
        any::<u32>().prop_map(|recv_s| RecordKind::Unmatched { recv_s }),
        any::<u8>().prop_map(|code| RecordKind::IcmpError { code }),
    ]
}

proptest! {
    #[test]
    fn binary_roundtrip(records in proptest::collection::vec(arb_record(), 0..200)) {
        let mut buf = Vec::new();
        binfmt::write_records(&mut buf, &records).unwrap();
        let back = binfmt::read_records(&mut &buf[..]).unwrap();
        prop_assert_eq!(back, records);
    }

    #[test]
    fn text_roundtrip(records in proptest::collection::vec(arb_record(), 0..200)) {
        // The text format stores Unmatched recv_s as the single timestamp,
        // so normalize records the way the constructor does.
        let records: Vec<Record> = records
            .into_iter()
            .map(|r| match r.kind {
                RecordKind::Unmatched { recv_s } => Record::unmatched(r.addr, recv_s),
                _ => r,
            })
            .collect();
        let text = textfmt::to_text(&records);
        let back = textfmt::from_text(&text).unwrap();
        prop_assert_eq!(back, records);
    }

    #[test]
    fn binary_detects_payload_corruption(
        records in proptest::collection::vec(arb_record(), 1..50),
        byte in any::<u8>(),
        pos in any::<proptest::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        binfmt::write_records(&mut buf, &records).unwrap();
        // Corrupt somewhere strictly inside the record region (skip the
        // 16-byte header and 8-byte trailer).
        let lo = 16;
        let hi = buf.len() - 8;
        let idx = lo + pos.index(hi - lo);
        prop_assume!(buf[idx] != byte);
        buf[idx] = byte;
        // Either the framing breaks (Corrupt/Io) or the checksum catches
        // it; silently succeeding with different records is the only
        // unacceptable outcome.
        if let Ok(back) = binfmt::read_records(&mut &buf[..]) {
            prop_assert_eq!(back, records, "corruption silently accepted");
        }
    }

    #[test]
    fn text_lines_have_no_newlines(r in arb_record()) {
        let line = textfmt::to_line(&r);
        prop_assert!(!line.contains('\n'));
        prop_assert!(line.split('\t').count() >= 3);
    }

    #[test]
    fn snapshot_roundtrip_is_lossless_and_canonical(snap in arb_snapshot()) {
        let mut buf = Vec::new();
        snapshot::write_snapshot(&mut buf, &snap).unwrap();
        let back = snapshot::read_snapshot(&mut &buf[..]).unwrap();
        prop_assert_eq!(&back, &snap, "decode must be lossless");
        let mut again = Vec::new();
        snapshot::write_snapshot(&mut again, &back).unwrap();
        prop_assert_eq!(again, buf, "re-encode must be byte-identical");
    }

    #[test]
    fn delta_roundtrips_and_applies_bit_identically((base, target) in arb_snapshot_pair()) {
        let delta = snapshot::diff_snapshot(&base, &target).unwrap();

        // The wire form is canonical and lossless.
        let mut buf = Vec::new();
        snapshot::write_delta(&mut buf, &delta).unwrap();
        let back = snapshot::read_delta(&mut &buf[..]).unwrap();
        prop_assert_eq!(&back, &delta, "delta decode must be lossless");
        let mut again = Vec::new();
        snapshot::write_delta(&mut again, &back).unwrap();
        prop_assert_eq!(again, buf, "delta re-encode must be byte-identical");

        // Applying the decoded delta reproduces the target snapshot
        // byte-for-byte: same encoding, same identity checksum.
        let applied = back.apply(&base).unwrap();
        prop_assert_eq!(&applied, &target);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        snapshot::write_snapshot(&mut a, &applied).unwrap();
        snapshot::write_snapshot(&mut b, &target).unwrap();
        prop_assert_eq!(a, b, "apply(base, delta) must equal the full rebuild");
    }

    #[test]
    fn delta_rejects_a_stale_base((base, target) in arb_snapshot_pair()) {
        prop_assume!(snapshot::snapshot_checksum(&base) != snapshot::snapshot_checksum(&target));
        let delta = snapshot::diff_snapshot(&base, &target).unwrap();
        // The target shares the base's grid but not its checksum — the
        // shape of a delta arriving after the snapshot already moved on.
        match delta.apply(&target) {
            Err(beware_dataset::SnapshotError::StaleDelta { expected, got }) => {
                prop_assert_eq!(expected, snapshot::snapshot_checksum(&base));
                prop_assert_eq!(got, snapshot::snapshot_checksum(&target));
            }
            other => prop_assert!(false, "stale base accepted: {other:?}"),
        }
    }

    #[test]
    fn snapshot_detects_single_byte_corruption(
        snap in arb_snapshot(),
        byte in any::<u8>(),
        pos in any::<proptest::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        snapshot::write_snapshot(&mut buf, &snap).unwrap();
        // Corrupt anywhere past the 8-byte header (header corruption is
        // caught by magic/version checks, exercised in unit tests).
        let idx = 8 + pos.index(buf.len() - 8);
        prop_assume!(buf[idx] != byte);
        buf[idx] = byte;
        // Accepting the corrupted bytes is only sound if they decode to
        // the very same snapshot (impossible here since one byte differs
        // and the encoding is canonical — so any Ok must compare unequal
        // and fail the test).
        if let Ok(back) = snapshot::read_snapshot(&mut &buf[..]) {
            prop_assert_eq!(back, snap, "corruption silently accepted");
        }
    }
}

proptest! {
    #[test]
    fn record_decoders_reject_truncation_and_never_panic(
        records in proptest::collection::vec(arb_record(), 0..20),
        bit in any::<proptest::sample::Index>(),
    ) {
        let mut bwsv = Vec::new();
        binfmt::write_records(&mut bwsv, &records).unwrap();
        let mut w = StreamWriter::new(Vec::new()).unwrap();
        for &r in &records {
            w.push(r);
        }
        let bwss = w.finish().unwrap();
        for cut in truncations(&bwsv) {
            prop_assert!(binfmt::read_records(&mut &cut[..]).is_err(), "{} bytes", cut.len());
        }
        for cut in truncations(&bwss) {
            prop_assert!(read_stream(cut).is_err(), "{} bytes", cut.len());
        }
        let _ = binfmt::read_records(&mut &flipped(&bwsv, bit)[..]);
        let _ = read_stream(&flipped(&bwss, bit));
    }

    #[test]
    fn snapshot_decoders_reject_truncation_and_never_panic(
        (base, target) in arb_snapshot_pair(),
        bit in any::<proptest::sample::Index>(),
    ) {
        let mut bwts = Vec::new();
        snapshot::write_snapshot(&mut bwts, &base).unwrap();
        let mut bwtd = Vec::new();
        snapshot::write_delta(&mut bwtd, &snapshot::diff_snapshot(&base, &target).unwrap())
            .unwrap();
        for cut in truncations(&bwts) {
            prop_assert!(snapshot::read_snapshot(&mut &cut[..]).is_err(), "{} bytes", cut.len());
        }
        for cut in truncations(&bwtd) {
            prop_assert!(snapshot::read_delta(&mut &cut[..]).is_err(), "{} bytes", cut.len());
        }
        let _ = snapshot::read_snapshot(&mut &flipped(&bwts, bit)[..]);
        let _ = snapshot::read_delta(&mut &flipped(&bwtd, bit)[..]);
    }
}

/// Arbitrary *canonical* snapshot: strictly increasing levels in
/// `(0, 1000]`, entries strictly ascending by `(prefix, len)` with host
/// bits masked off, and arbitrary `f64`-bit cells (including NaNs and
/// infinities — the codec must not care).
/// A base snapshot and a same-grid target: some base entries carried
/// over verbatim (absent from the delta), some rewritten or added with
/// fresh cells (upserts), the rest dropped (removals), and the fallback
/// kept or replaced — every shape a delta can take.
fn arb_snapshot_pair() -> impl Strategy<Value = (TimeoutSnapshot, TimeoutSnapshot)> {
    (
        arb_snapshot(),
        proptest::collection::vec((any::<u32>(), 0..=32u8), 0..12),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(base, raw_keys, cell_seed, keep_fallback)| {
            let cells = base.address_pct_tenths.len() * base.ping_pct_tenths.len();
            let mut rng = beware_runtime::rng::SplitMix64::new(cell_seed);
            // Keep every other base entry bit-for-bit; the rest vanish
            // unless a fresh key below resurrects them (as an upsert).
            let mut map = std::collections::BTreeMap::new();
            for e in base.entries.iter().step_by(2) {
                map.insert((e.prefix, e.len), e.cells.clone());
            }
            for (p, l) in raw_keys {
                let key = (p & prefix_mask(l), l);
                map.entry(key).or_insert_with(|| (0..cells).map(|_| rng.next_u64()).collect());
            }
            let target = TimeoutSnapshot {
                address_pct_tenths: base.address_pct_tenths.clone(),
                ping_pct_tenths: base.ping_pct_tenths.clone(),
                fallback: if keep_fallback {
                    base.fallback.clone()
                } else {
                    (0..cells).map(|_| rng.next_u64()).collect()
                },
                entries: map
                    .into_iter()
                    .map(|((prefix, len), cells)| SnapshotEntry { prefix, len, cells })
                    .collect(),
            };
            (base, target)
        })
}

fn arb_snapshot() -> impl Strategy<Value = TimeoutSnapshot> {
    (
        proptest::collection::vec(1..=1000u16, 1..5),
        proptest::collection::vec(1..=1000u16, 1..5),
        proptest::collection::vec((any::<u32>(), 0..=32u8), 0..12),
        any::<u64>(),
    )
        .prop_map(|(mut r, mut c, raw_entries, cell_seed)| {
            r.sort_unstable();
            r.dedup();
            c.sort_unstable();
            c.dedup();
            let cells = r.len() * c.len();

            let mut keys: Vec<(u32, u8)> =
                raw_entries.into_iter().map(|(p, l)| (p & prefix_mask(l), l)).collect();
            keys.sort_unstable();
            keys.dedup();

            // Arbitrary cell bits from the canonical SplitMix64 stream —
            // the codec treats them as opaque u64s.
            let mut rng = beware_runtime::rng::SplitMix64::new(cell_seed);
            let mut next = move || rng.next_u64();
            TimeoutSnapshot {
                address_pct_tenths: r,
                ping_pct_tenths: c,
                fallback: (0..cells).map(|_| next()).collect(),
                entries: keys
                    .into_iter()
                    .map(|(prefix, len)| SnapshotEntry {
                        prefix,
                        len,
                        cells: (0..cells).map(|_| next()).collect(),
                    })
                    .collect(),
            }
        })
}
