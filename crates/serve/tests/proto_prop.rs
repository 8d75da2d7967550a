//! Property tests for the wire protocol's incremental decoder: however a
//! sequence of frames is fragmented — byte at a time, split at every
//! boundary, or at arbitrary random cut points — feeding the fragments
//! through an accumulation buffer must decode exactly the same messages
//! as decoding each whole frame. `encode_into` appends exactly what
//! `encode` returns. Truncated, bit-flipped and arbitrary bytes decode to
//! a message, a wait for more, or a typed error, never a panic.

use beware_serve::proto::{self, ErrorCode, Message, Status};
use proptest::prelude::*;

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u32>(), 1..=1000u16, 1..=1000u16).prop_map(
            |(addr, addr_pct_tenths, ping_pct_tenths)| Message::Query {
                addr,
                addr_pct_tenths,
                ping_pct_tenths
            }
        ),
        Just(Message::Stats),
        Just(Message::Shutdown),
        (any::<u64>(), any::<u32>(), 0..=32u8, any::<bool>()).prop_map(
            |(timeout_bits, prefix, prefix_len, exact)| Message::Answer {
                status: if exact { Status::Exact } else { Status::Fallback },
                timeout_bits,
                prefix,
                prefix_len,
            }
        ),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(queries, hits_exact, hits_fallback)| Message::StatsReply {
                queries,
                hits_exact,
                hits_fallback
            }
        ),
        Just(Message::ShutdownAck),
        (any::<u32>(), any::<u32>()).prop_map(|(addr, rtt_us)| Message::Report { addr, rtt_us }),
        any::<u64>().prop_map(|reports| Message::ReportAck { reports }),
        Just(Message::Error { code: ErrorCode::UnsupportedPercentile }),
        Just(Message::Error { code: ErrorCode::Malformed }),
    ]
}

/// Feed `stream` into an accumulation buffer in chunks whose sizes are
/// chosen by `cuts`, draining complete frames as they appear — exactly
/// the server's reassembly loop.
fn decode_fragmented(stream: &[u8], chunk_sizes: &[usize]) -> Vec<Message> {
    let mut decoded = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut fed = 0usize;
    let mut cut_idx = 0usize;
    while fed < stream.len() {
        let step = if chunk_sizes.is_empty() {
            1
        } else {
            chunk_sizes[cut_idx % chunk_sizes.len()].clamp(1, stream.len() - fed)
        };
        cut_idx += 1;
        buf.extend_from_slice(&stream[fed..fed + step]);
        fed += step;
        let mut consumed = 0usize;
        while let Some((msg, used)) = proto::try_decode(&buf[consumed..]).expect("valid stream") {
            decoded.push(msg);
            consumed += used;
        }
        buf.drain(..consumed);
    }
    assert!(buf.is_empty(), "whole frames must leave no residue");
    decoded
}

proptest! {
    #[test]
    fn random_fragmentation_decodes_like_whole_frames(
        msgs in proptest::collection::vec(arb_message(), 1..10),
        chunk_sizes in proptest::collection::vec(1usize..17, 1..12),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&proto::encode(m));
        }
        let got = decode_fragmented(&stream, &chunk_sizes);
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn byte_at_a_time_decodes_like_whole_frames(
        msgs in proptest::collection::vec(arb_message(), 1..6),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&proto::encode(m));
        }
        let got = decode_fragmented(&stream, &[]);
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn split_at_every_boundary_decodes_like_whole_frame(msg in arb_message()) {
        let frame = proto::encode(&msg);
        for cut in 1..frame.len() {
            let got = decode_fragmented(&frame, &[cut, frame.len()]);
            prop_assert_eq!(&got, &vec![msg], "split at {}", cut);
        }
    }

    #[test]
    fn encode_into_appends_exactly_encode(
        msg in arb_message(),
        prefix in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        let mut out = prefix.clone();
        proto::encode_into(&msg, &mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &proto::encode(&msg)[..]);
    }

    #[test]
    fn mangled_frames_never_panic(
        msg in arb_message(),
        bit in any::<proptest::sample::Index>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        let frame = proto::encode(&msg);
        for cut in 0..frame.len() {
            prop_assert!(matches!(proto::try_decode(&frame[..cut]), Ok(None)), "cut at {}", cut);
        }
        let mut bad = frame.clone();
        let bit = bit.index(8 * bad.len());
        bad[bit / 8] ^= 1 << (bit % 8);
        if let Ok(Some((got, _))) = proto::try_decode(&bad) {
            prop_assert_eq!(got, msg, "flipped bit {} silently accepted", bit);
        }
        let _ = proto::try_decode(&garbage);
    }
}
