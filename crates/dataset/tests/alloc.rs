//! Decoding a survey file must not trust its header's record count with
//! memory: a 16-byte BWSV header that claims `u64::MAX` records and then
//! ends is an error, reached without a large reservation.
//!
//! The counting allocator's counters are process-wide, so this binary
//! holds a single `#[test]`.

use beware_dataset::binfmt::read_records;
use beware_runtime::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn header_record_count_is_not_trusted_with_memory() {
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(b"BWSV");
    header.extend_from_slice(&1u16.to_le_bytes()); // version
    header.extend_from_slice(&0u16.to_le_bytes()); // reserved
    header.extend_from_slice(&u64::MAX.to_le_bytes()); // record count
    let before = ALLOC.bytes();
    let got = read_records(&mut &header[..]);
    let requested = ALLOC.bytes() - before;
    assert!(got.is_err(), "a header with no records after it must not decode");
    // The decoder may reserve its cap of 64 Ki 16-byte records, 1 MiB; a
    // cap of 2^24 records would ask for 256 MiB.
    assert!(requested <= 1 << 20, "decoding the bare header requested {requested} bytes");
}
