//! The client's half of the oracle protocol as a sans-IO state machine,
//! the twin of [`Engine`](crate::engine::Engine). A [`ClientMachine`]
//! holds no socket, no clock and no bytes: it takes `now`, received bytes
//! and fired deadlines, and gives request frames, the deadline to arm and
//! one [`Outcome`] per request. The blocking [`Client`](crate::Client)
//! (and through it [`loadgen`](crate::loadgen)) drives it, and so does
//! each simulated client of `beware simserve`.
//!
//! It owns reassembly ([`on_bytes`](ClientMachine::on_bytes) leaves a
//! partial frame with the driver, so a machine is 16 bytes), reply
//! matching, the `ReportAck` of a [`feedback`](ClientMachine::feedback)
//! report ahead of the next reply, and the [`AfterTimeout`] rule.

use crate::client::{Answer, ClientError, ServerStats, SnapshotInfo};
use crate::proto::{self, ErrorCode, Message};
use std::time::Duration;

/// What a connection does once a reply's place in the stream is lost: its
/// deadline fired before it completed, or a frame did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfterTimeout {
    /// Refuse every further request with [`ClientError::Poisoned`]: on a
    /// byte stream the abandoned reply may still arrive and would shift
    /// every later frame. The blocking client's rule.
    Poison,
    /// Carry on: the medium never delivers a late reply (a simulated link
    /// cancels an abandoned leg), so the driver discards what it holds and
    /// the next request starts clean. The simulated clients' rule.
    Drain,
}

/// A reply that answers its request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// Answers a `Query`.
    Answer(Answer),
    /// The server's running report count, answering a `Report`.
    ReportAck(u64),
    /// Answers `Stats`.
    Stats(ServerStats),
    /// The serving snapshot, answering `SnapshotInfo` or `Reload`.
    Snapshot(SnapshotInfo),
    /// Answers `Shutdown`.
    ShutdownAck,
}

/// How one request ended.
#[derive(Debug)]
pub enum Outcome {
    /// The reply arrived `rtt` after the request was sent; a server
    /// `Error`, a mismatched opcode or an undecodable frame is an `Err`.
    Reply {
        /// The reply, or why it does not answer the request.
        reply: Result<Reply, ClientError>,
        /// From [`send`](ClientMachine::send) to the reply's last byte.
        rtt: Duration,
    },
    /// The deadline fired before the reply completed.
    TimedOut,
}

/// The reply a pending request waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Answer,
    ReportAck,
    Stats,
    Snapshot,
    ShutdownAck,
}

impl Expect {
    fn of(request: &Message) -> Expect {
        match request {
            Message::Query { .. } => Expect::Answer,
            Message::Report { .. } => Expect::ReportAck,
            Message::Stats => Expect::Stats,
            Message::SnapshotInfo | Message::Reload { .. } => Expect::Snapshot,
            Message::Shutdown => Expect::ShutdownAck,
            reply => panic!("{reply:?} is a reply, not a request"),
        }
    }

    /// The matching rule: what `msg` means as this request's reply.
    fn judge(self, msg: Message) -> Result<Reply, ClientError> {
        Ok(match (self, msg) {
            (_, Message::Error { code }) => return Err(ClientError::Server(code)),
            (Expect::Answer, Message::Answer { status, timeout_bits, prefix, prefix_len }) => {
                let timeout_secs = f64::from_bits(timeout_bits);
                Reply::Answer(Answer { status, timeout_secs, timeout_bits, prefix, prefix_len })
            }
            (Expect::ReportAck, Message::ReportAck { reports }) => Reply::ReportAck(reports),
            (Expect::Stats, Message::StatsReply { queries, hits_exact, hits_fallback }) => {
                Reply::Stats(ServerStats { queries, hits_exact, hits_fallback })
            }
            (Expect::Snapshot, Message::SnapshotInfoReply { version, entries, checksum }) => {
                Reply::Snapshot(SnapshotInfo { version, entries, checksum })
            }
            (Expect::ShutdownAck, Message::ShutdownAck) => Reply::ShutdownAck,
            _ => return Err(ClientError::UnexpectedReply),
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Waiting(Expect),
    Poisoned,
}

/// One connection's client-side protocol state; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct ClientMachine {
    sent_at_ns: u64,
    state: State,
    after_timeout: AfterTimeout,
    /// Feedback reports whose replies precede the pending request's.
    acks_due: u8,
    /// A feedback report's refusal (`None` inside: a mismatched opcode);
    /// it fails the request the report rode ahead of.
    refused: Option<Option<ErrorCode>>,
}

impl ClientMachine {
    /// An idle connection that applies `after_timeout` to a lost reply.
    pub fn new(after_timeout: AfterTimeout) -> ClientMachine {
        let (state, acks_due, refused) = (State::Idle, 0, None);
        ClientMachine { sent_at_ns: 0, state, after_timeout, acks_due, refused }
    }

    /// Whether a lost reply has poisoned the connection.
    pub fn is_poisoned(&self) -> bool {
        self.state == State::Poisoned
    }

    /// Append a `Report` of `rtt_us` for `addr` to `out`, to ride ahead of
    /// the next request.
    pub fn feedback(&mut self, addr: u32, rtt_us: u32, out: &mut Vec<u8>) {
        proto::encode_into(&Message::Report { addr, rtt_us }, out);
        self.acks_due += 1;
    }

    /// Start `request` at `now`: append its frame to `out` and return the
    /// deadline to arm, `timeout` from now.
    ///
    /// # Panics
    ///
    /// If `request` is a reply, or another request is still pending.
    pub fn send(
        &mut self,
        now: Duration,
        timeout: Duration,
        request: &Message,
        out: &mut Vec<u8>,
    ) -> Result<Duration, ClientError> {
        match self.state {
            State::Poisoned => return Err(ClientError::Poisoned),
            State::Waiting(_) => panic!("a request is already in flight"),
            State::Idle => {}
        }
        self.state = State::Waiting(Expect::of(request));
        proto::encode_into(request, out);
        self.sent_at_ns = nanos(now);
        Ok(now.saturating_add(timeout))
    }

    /// Decode reply frames from the front of `rx`, received by `now`.
    /// Returns how many bytes were used — the driver drops those and keeps
    /// the rest — and the outcome once the reply completes. With no
    /// request pending, nothing is used.
    pub fn on_bytes(&mut self, now: Duration, rx: &[u8]) -> (usize, Option<Outcome>) {
        let State::Waiting(expect) = self.state else { return (0, None) };
        let mut used = 0;
        loop {
            let (msg, len) = match proto::try_decode(&rx[used..]) {
                Ok(Some(frame)) => frame,
                Ok(None) => return (used, None),
                Err(e) => {
                    // No frame boundary to resume from: all of `rx` is spent.
                    self.lose_reply();
                    return (rx.len(), Some(self.reply(now, Err(e.into()))));
                }
            };
            used += len;
            if self.acks_due > 0 {
                self.acks_due -= 1;
                if let Err(e) = Expect::ReportAck.judge(msg) {
                    let code = if let ClientError::Server(code) = e { Some(code) } else { None };
                    self.refused.get_or_insert(code);
                }
                continue;
            }
            let reply = match self.refused.take() {
                Some(Some(code)) => Err(ClientError::Server(code)),
                Some(None) => Err(ClientError::UnexpectedReply),
                None => expect.judge(msg),
            };
            self.state = State::Idle;
            return (used, Some(self.reply(now, reply)));
        }
    }

    /// The armed deadline fired: [`Outcome::TimedOut`] if a reply was
    /// pending (`None` for a stale timer), under the [`AfterTimeout`] rule.
    pub fn on_deadline(&mut self) -> Option<Outcome> {
        matches!(self.state, State::Waiting(_)).then(|| {
            self.lose_reply();
            Outcome::TimedOut
        })
    }

    /// The transport failed (a short write, a read error, EOF). The
    /// stream's position is unknown whatever the rule: poisoned.
    pub fn on_transport_error(&mut self) {
        self.lose_reply();
        self.state = State::Poisoned;
    }

    fn lose_reply(&mut self) {
        (self.acks_due, self.refused) = (0, None);
        self.state = match self.after_timeout {
            AfterTimeout::Poison => State::Poisoned,
            AfterTimeout::Drain => State::Idle,
        };
    }

    fn reply(&self, now: Duration, reply: Result<Reply, ClientError>) -> Outcome {
        let rtt = Duration::from_nanos(nanos(now).saturating_sub(self.sent_at_ns));
        Outcome::Reply { reply, rtt }
    }
}

/// `d` in whole nanoseconds, saturating past ~584 years.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Status;

    const SEC: Duration = Duration::from_secs(1);

    fn answer(bits: u64) -> Message {
        Message::Answer {
            status: Status::Exact,
            timeout_bits: bits,
            prefix: 0x0a00_0000,
            prefix_len: 24,
        }
    }

    fn query() -> Message {
        Message::Query { addr: 0x0a00_0001, addr_pct_tenths: 950, ping_pct_tenths: 950 }
    }

    fn frames(msgs: &[Message]) -> Vec<u8> {
        let mut out = Vec::new();
        msgs.iter().for_each(|m| proto::encode_into(m, &mut out));
        out
    }

    #[test]
    fn machine_is_small() {
        assert!(std::mem::size_of::<ClientMachine>() <= 16);
    }

    #[test]
    fn reply_carries_its_rtt_and_the_deadline_is_armed_from_send() {
        let mut m = ClientMachine::new(AfterTimeout::Poison);
        let mut out = Vec::new();
        let deadline = m.send(SEC, 3 * SEC, &query(), &mut out).unwrap();
        assert_eq!(deadline, 4 * SEC);
        assert_eq!(out, proto::encode(&query()));
        let rx = frames(&[answer(7)]);
        let (used, outcome) = m.on_bytes(SEC + Duration::from_micros(1500), &rx);
        assert_eq!(used, rx.len());
        match outcome {
            Some(Outcome::Reply { reply: Ok(Reply::Answer(a)), rtt }) => {
                assert_eq!(a.timeout_bits, 7);
                assert_eq!(rtt, Duration::from_micros(1500));
            }
            other => panic!("expected an answer, got {other:?}"),
        }
        assert_eq!(m.on_deadline().map(|_| ()), None, "a stale timer is ignored");
    }

    #[test]
    fn partial_frames_wait_for_the_rest() {
        let mut m = ClientMachine::new(AfterTimeout::Poison);
        m.send(Duration::ZERO, SEC, &query(), &mut Vec::new()).unwrap();
        let rx = frames(&[answer(9)]);
        for cut in 0..rx.len() {
            let mut m = m.clone();
            assert_eq!(m.on_bytes(SEC, &rx[..cut]).0, 0);
            assert!(matches!(m.on_bytes(SEC, &rx).1, Some(Outcome::Reply { reply: Ok(_), .. })));
        }
    }

    #[test]
    fn feedback_ack_precedes_the_answer_and_a_refusal_fails_the_request() {
        let mut m = ClientMachine::new(AfterTimeout::Drain);
        let mut out = Vec::new();
        m.feedback(0x0a00_0001, 40_000, &mut out);
        m.send(Duration::ZERO, SEC, &query(), &mut out).unwrap();
        assert_eq!(out, frames(&[Message::Report { addr: 0x0a00_0001, rtt_us: 40_000 }, query()]));
        let rx = frames(&[Message::ReportAck { reports: 3 }, answer(5)]);
        let (used, outcome) = m.on_bytes(SEC, &rx);
        assert_eq!(used, rx.len());
        assert!(matches!(outcome, Some(Outcome::Reply { reply: Ok(Reply::Answer(_)), .. })));

        m.feedback(1, 1, &mut out);
        m.send(Duration::ZERO, SEC, &query(), &mut out).unwrap();
        let refused = Message::Error { code: ErrorCode::PolicyUnavailable };
        let (used, outcome) = m.on_bytes(SEC, &frames(&[refused, answer(5)]));
        assert_eq!(used, frames(&[refused, answer(5)]).len(), "the answer is consumed too");
        assert!(matches!(
            outcome,
            Some(Outcome::Reply {
                reply: Err(ClientError::Server(ErrorCode::PolicyUnavailable)),
                ..
            })
        ));
    }

    #[test]
    fn well_framed_mismatches_keep_the_connection() {
        let mut m = ClientMachine::new(AfterTimeout::Poison);
        for (reply, want_server) in
            [(Message::ShutdownAck, false), (Message::Error { code: ErrorCode::Malformed }, true)]
        {
            m.send(Duration::ZERO, SEC, &query(), &mut Vec::new()).unwrap();
            match m.on_bytes(SEC, &frames(&[reply])).1 {
                Some(Outcome::Reply { reply: Err(ClientError::Server(_)), .. }) => {
                    assert!(want_server)
                }
                Some(Outcome::Reply { reply: Err(ClientError::UnexpectedReply), .. }) => {
                    assert!(!want_server)
                }
                other => panic!("unexpected {other:?}"),
            }
            assert!(!m.is_poisoned());
        }
    }

    #[test]
    fn a_lost_reply_poisons_or_drains_by_rule() {
        for rule in [AfterTimeout::Poison, AfterTimeout::Drain] {
            let mut m = ClientMachine::new(rule);
            m.send(Duration::ZERO, SEC, &query(), &mut Vec::new()).unwrap();
            assert!(matches!(m.on_deadline(), Some(Outcome::TimedOut)));
            let next = m.send(SEC, SEC, &query(), &mut Vec::new());
            assert_eq!(next.is_err(), rule == AfterTimeout::Poison);

            let mut m = ClientMachine::new(rule);
            m.send(Duration::ZERO, SEC, &query(), &mut Vec::new()).unwrap();
            let garbage = [0xff, 0xff, 1, 2, 3];
            let (used, outcome) = m.on_bytes(SEC, &garbage);
            assert_eq!(used, garbage.len());
            assert!(matches!(
                outcome,
                Some(Outcome::Reply { reply: Err(ClientError::Proto(_)), .. })
            ));
            assert_eq!(m.is_poisoned(), rule == AfterTimeout::Poison);
        }
        let mut m = ClientMachine::new(AfterTimeout::Drain);
        m.on_transport_error();
        assert!(m.is_poisoned(), "a broken transport poisons whatever the rule");
    }
}
