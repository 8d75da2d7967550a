//! One client behaviour on both drivers. A scripted server byte stream —
//! answers, a `ReportAck`, a server `Error`, a wrong opcode, and a reply
//! cut off mid-frame followed by a stall — is split at every byte
//! boundary and fed to the client machine twice: by the blocking
//! [`Client`] over a real loopback socket, and over a `ChannelPeer` the
//! way `simserve`'s cells drive it (deliver on arrival, discard on the
//! deadline). Both must yield the same outcome sequence at every split.

use beware_serve::engine::{channel_pair, Transport};
use beware_serve::machine::{AfterTimeout, ClientMachine, Outcome, Reply};
use beware_serve::proto::{self, ErrorCode, Message, Status};
use beware_serve::{Client, ClientError};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

const QUERY: Message =
    Message::Query { addr: 0x0a00_0001, addr_pct_tenths: 950, ping_pct_tenths: 950 };
const REPORT: Message = Message::Report { addr: 0x0a00_0001, rtt_us: 42_000 };

fn answer(secs: f64) -> Message {
    Message::Answer {
        status: Status::Exact,
        timeout_bits: secs.to_bits(),
        prefix: 0x0a00_0000,
        prefix_len: 24,
    }
}

/// The requests, in order, and the server's reply stream: one reply per
/// request, the last cut off halfway.
fn script() -> (Vec<Message>, Vec<u8>) {
    let requests = vec![QUERY, REPORT, QUERY, Message::Stats, QUERY, QUERY];
    let mut stream = Vec::new();
    for reply in [
        answer(3.0),
        Message::ReportAck { reports: 7 },
        Message::Error { code: ErrorCode::UnsupportedPercentile },
        Message::ShutdownAck,
        answer(0.25),
    ] {
        proto::encode_into(&reply, &mut stream);
    }
    let cut = proto::encode(&answer(60.0));
    stream.extend_from_slice(&cut[..cut.len() / 2]);
    (requests, stream)
}

const EXPECTED: [&str; 6] =
    ["answer 3", "ack 7", "server UnsupportedPercentile", "unexpected", "answer 0.25", "timeout"];

fn token(reply: Result<Reply, ClientError>) -> String {
    match reply {
        Ok(Reply::Answer(a)) => format!("answer {}", a.timeout_secs),
        Ok(Reply::ReportAck(n)) => format!("ack {n}"),
        Ok(other) => format!("{other:?}"),
        Err(ClientError::Server(code)) => format!("server {code:?}"),
        Err(ClientError::UnexpectedReply) => "unexpected".into(),
        Err(ClientError::Io(e))
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
        {
            "timeout".into()
        }
        Err(other) => format!("{other:?}"),
    }
}

/// The blocking client on a loopback socket. The server writes the
/// stream's first `split` bytes at once and the rest only after the
/// request waiting on byte `split` has arrived, so the client meets the
/// split mid-read whenever the kernel keeps the two writes apart.
fn over_socket(requests: &[Message], stream: &[u8], split: usize) -> Vec<String> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // The request whose reply holds byte `split`.
    let mut ends = Vec::new();
    let mut at = 0;
    while let Ok(Some((_, n))) = proto::try_decode(&stream[at..]) {
        at += n;
        ends.push(at);
    }
    let waits_on = ends.iter().filter(|&&end| end <= split).count();
    let (head, tail) = (stream[..split].to_vec(), stream[split..].to_vec());
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.set_nodelay(true).unwrap();
        s.write_all(&head).unwrap();
        let (mut seen, mut buf, mut chunk) = (0, Vec::new(), [0u8; 64]);
        while seen <= waits_on {
            while let Ok(Some((_, n))) = proto::try_decode(&buf) {
                buf.drain(..n);
                seen += 1;
            }
            if seen > waits_on {
                break;
            }
            match s.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
        s.write_all(&tail).unwrap();
        // Stall: hold the socket open until the client is done.
        let _ = done_rx.recv_timeout(Duration::from_secs(10));
    });

    let sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let knob = sock.try_clone().unwrap();
    let mut client = Client::from_transport(sock);
    let mut out = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        if i + 1 == requests.len() {
            // Only the stalled reply should wait out a deadline.
            knob.set_read_timeout(Some(Duration::from_millis(30))).unwrap();
        }
        let reply = match *request {
            Message::Query { addr, addr_pct_tenths, ping_pct_tenths } => {
                client.query(addr, addr_pct_tenths, ping_pct_tenths).map(Reply::Answer)
            }
            Message::Report { addr, rtt_us } => client.report(addr, rtt_us).map(Reply::ReportAck),
            Message::Stats => client.stats().map(Reply::Stats),
            other => unreachable!("not scripted: {other:?}"),
        };
        out.push(token(reply));
    }
    assert!(client.is_poisoned(), "the stalled mid-frame reply poisons the socket client");
    done_tx.send(()).ok();
    server.join().unwrap();
    out
}

/// The machine over a channel, as a `simserve` cell drives it: each
/// arrival is delivered, and the deadline fires only when nothing more
/// is coming.
fn over_channel(requests: &[Message], stream: &[u8], split: usize) -> Vec<String> {
    let (mut server, peer) = channel_pair();
    let mut machine = ClientMachine::new(AfterTimeout::Drain);
    server.write_nb(&stream[..split]).unwrap();
    let mut rest = Some(&stream[split..]);
    let (mut out, mut tx) = (Vec::new(), Vec::new());
    let mut now = Duration::ZERO;
    for request in requests {
        tx.clear();
        machine.send(now, Duration::from_secs(1), request, &mut tx).unwrap();
        peer.send(&tx);
        now += Duration::from_millis(1);
        let outcome = loop {
            if let Some(outcome) = peer.deliver(&mut machine, now) {
                break outcome;
            }
            match rest.take() {
                Some(bytes) => {
                    server.write_nb(bytes).unwrap();
                }
                None => {
                    let timed_out = machine.on_deadline().expect("a reply was pending");
                    peer.discard();
                    break timed_out;
                }
            }
        };
        out.push(match outcome {
            Outcome::Reply { reply, .. } => token(reply),
            Outcome::TimedOut => "timeout".into(),
        });
    }
    out
}

#[test]
fn blocking_and_channel_drivers_agree_at_every_split() {
    let (requests, stream) = script();
    for split in 0..=stream.len() {
        let channel = over_channel(&requests, &stream, split);
        assert_eq!(channel, EXPECTED, "channel driver, split at byte {split}");
        let socket = over_socket(&requests, &stream, split);
        assert_eq!(socket, channel, "socket vs channel driver, split at byte {split}");
    }
}
